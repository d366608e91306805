package intern

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// fresh rebuilds s in new memory, so two calls never share a backing array.
func fresh(s string) string { return strings.Clone(s) }

func same(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }

// tableSize counts every interned string. The table is process-wide, so
// tests compare sizes rather than expect absolute ones.
func tableSize() int {
	n := 0
	for _, sh := range shards {
		sh.mu.RLock()
		n += len(sh.plain) + len(sh.index) + len(sh.bracket) + len(sh.pair)
		sh.mu.RUnlock()
	}
	return n
}

func TestEqualNamesShareOneString(t *testing.T) {
	for _, tc := range []struct {
		name string
		want string
		call func() string
	}{
		{"S", "share/clk_gate", func() string { return S(fresh("share/clk_gate")) }},
		{"Index", "share_n42", func() string { return Index(fresh("share_n"), 42) }},
		{"Index negative", "share_n-7", func() string { return Index(fresh("share_n"), -7) }},
		{"Bracket", "share_bus[3]", func() string { return Bracket(fresh("share_bus"), 3) }},
		{"Concat", "share_U17/D", func() string { return Concat(fresh("share_U17"), fresh("/D")) }},
		{"Concat empty", "share_U18", func() string { return Concat(fresh("share_U18"), "") }},
	} {
		a, b := tc.call(), tc.call()
		if a != tc.want || b != tc.want {
			t.Errorf("%s = %q, %q; want %q", tc.name, a, b, tc.want)
		}
		if !same(a, b) {
			t.Errorf("%s: two calls returned equal strings with different backing arrays", tc.name)
		}
	}
	// The four maps are separate name spaces: the same text reached two
	// ways is still the right text.
	if Index("share_x", 1) != S("share_x1") || Bracket("share_x", 1) != "share_x[1]" {
		t.Error("equal text interned through different entry points differs")
	}
}

// corpus plays one elaboration: the name shapes the frontend, netlist and
// timing layers generate, a few thousand of them.
func corpus(visit func(string)) {
	for i := 0; i < 2000; i++ {
		visit(Index("corpus_n", i))
		cell := Index("corpus_U", i)
		visit(Concat(cell, "/D"))
		visit(Concat(cell, "/Q"))
		visit(Bracket("corpus_bus", i%64))
		visit(S(fmt.Sprintf("corpus_top/u%d/clk", i%100)))
	}
}

func TestSecondPassOverCorpusAddsNothing(t *testing.T) {
	before := tableSize()
	var first []string
	corpus(func(s string) { first = append(first, s) })
	grown := tableSize()
	if grown == before {
		t.Fatal("first pass over a new corpus interned nothing")
	}
	i := 0
	corpus(func(s string) {
		if !same(s, first[i]) {
			t.Fatalf("name %d (%q) was rebuilt on the second pass", i, s)
		}
		i++
	})
	if after := tableSize(); after != grown {
		t.Errorf("table grew from %d to %d strings on a second pass over the same corpus", grown, after)
	}
}

// TestConcurrentCallersAgree races goroutines on the same new names: each
// name must end up as one string, whoever inserted it. Meaningful under
// -race.
func TestConcurrentCallersAgree(t *testing.T) {
	const goroutines, names = 8, 500
	got := make([][]string, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]string, 0, 4*names)
			for i := 0; i < names; i++ {
				out = append(out,
					S(fmt.Sprintf("race_s%d", i)),
					Index("race_n", i),
					Bracket("race_b", i),
					Concat(Index("race_U", i), "/Z"))
			}
			got[g] = out
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := range got[0] {
			if got[g][i] != got[0][i] || !same(got[g][i], got[0][i]) {
				t.Fatalf("goroutine %d got its own copy of %q", g, got[0][i])
			}
		}
	}
}
