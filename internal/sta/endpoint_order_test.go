package sta

import (
	"math/rand"
	"strings"
	"testing"
)

// The endpoint order compares names it never builds. Both tests hold
// compareSuffixed to the definition: strings.Compare on the built names.

func checkCompareSuffixed(t *testing.T, a, as, b, bs string) {
	t.Helper()
	if got, want := compareSuffixed(a, as, b, bs), strings.Compare(a+as, b+bs); got != want {
		t.Fatalf("compareSuffixed(%q+%q, %q+%q) = %d, strings.Compare on the built names = %d", a, as, b, bs, got, want)
	}
}

// TestCompareSuffixedMatchesBuiltNames draws names from a small alphabet, so
// that one name being a prefix of the other — where the suffix of the shorter
// meets the rest of the longer — is the common case, with bytes on both sides
// of '/' ("U1/D" against "U1-x/D", "U1.a", "U1/", "U10/D").
func TestCompareSuffixedMatchesBuiltNames(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const alphabet = "U1/D!-.0z\x00\xff"
	name := func() string {
		b := make([]byte, rng.Intn(5))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	suffixes := []string{"", "/D", "/", "/D/D", "!"}
	for i := 0; i < 400000; i++ {
		a, b := name(), name()
		if rng.Intn(3) == 0 {
			b = a + name() // force the shared-prefix case
		}
		checkCompareSuffixed(t, a, suffixes[rng.Intn(len(suffixes))], b, suffixes[rng.Intn(len(suffixes))])
	}
}

func FuzzCompareSuffixed(f *testing.F) {
	for _, s := range [][4]string{
		{"U12", "/D", "U123", "/D"}, {"U12", "/D", "U12", ""}, {"out", "", "out/D", ""},
		{"U1", "/D", "U1-x", "/D"}, {"U1", "/D", "U1/", "/D"}, {"U1", "/D", "U1/D", ""},
		{"", "/D", "", ""}, {"q[3]", "", "q[31]", ""}, {"U1", "/D", "U1/E", ""},
	} {
		f.Add(s[0], s[1], s[2], s[3])
	}
	f.Fuzz(func(t *testing.T, a, as, b, bs string) {
		checkCompareSuffixed(t, a, as, b, bs)
		checkCompareSuffixed(t, b, bs, a, as)
	})
}
