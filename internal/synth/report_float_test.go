package synth

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// TestAppendFixedMatchesStrconv holds appendFixed to its definition,
// strconv.FormatFloat(v, 'f', prec, 64), at every precision the reports
// print, over values drawn log-uniformly from 1e-5…1e9 of both signs, exact
// binary fractions k/2^j (decimal ties at some precision), the doubles around
// each rounding boundary x.xxx5·10^-prec and around each power of ten (where
// rounding carries into a new digit and ⌊log10⌋ is easiest to misjudge), and
// the special values.
func TestAppendFixedMatchesStrconv(t *testing.T) {
	precs := []int{0, 2, 3, 4}
	n := 1 << 18 // per source, four sources: ≈ 10^6 values
	if testing.Short() {
		n = 1 << 14
	}
	rng := rand.New(rand.NewSource(42))
	var buf, want []byte
	cases := 0
	check := func(v float64) {
		for _, p := range precs {
			buf = appendFixed(buf[:0], v, p)
			if want = strconv.AppendFloat(want[:0], v, 'f', p, 64); string(buf) != string(want) {
				t.Fatalf("appendFixed(%v (%#x), %d) = %q, strconv says %q", v, math.Float64bits(v), p, buf, want)
			}
			cases++
		}
	}
	signed := func(v float64) float64 {
		if rng.Intn(2) == 0 {
			return -v
		}
		return v
	}
	// around checks v and the doubles a few ulps either side of it.
	around := func(v float64) {
		check(v)
		up, down := v, v
		for range 3 {
			up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, math.Inf(-1))
			check(up)
			check(down)
		}
	}

	for _, v := range []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1e15, 1e16, 1e300, 5e-324} {
		check(v)
	}
	for range n {
		check(signed(math.Pow(10, -5+14*rng.Float64())))
	}
	for range n {
		j := 1 + rng.Intn(20)
		k := rng.Int63n(int64(1e6) << j)
		check(signed(float64(k) / float64(int64(1)<<j)))
	}
	// Rounding boundaries (m + 0.5)·10^-p for each printed precision, m up to
	// 1e9·10^p; seven doubles each.
	for range n / 7 {
		p := precs[rng.Intn(len(precs))]
		m := rng.Int63n(int64(math.Pow(10, float64(9+p))))
		around(signed((float64(m) + 0.5) / math.Pow(10, float64(p))))
	}
	// Powers of ten and the values that round up onto them.
	for range n / 14 {
		e := -6 + rng.Intn(17)
		p := precs[rng.Intn(len(precs))]
		around(signed(math.Pow(10, float64(e))))
		around(signed(math.Pow(10, float64(e)) - 0.5/math.Pow(10, float64(p))))
	}
	if !testing.Short() && cases < 4e6 {
		t.Fatalf("checked %d cases, want at least 10^6 values at four precisions", cases)
	}
}
