package intern

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// fresh rebuilds s in new memory, so two calls never share a backing array.
func fresh(s string) string { return strings.Clone(s) }

func same(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }

// bracketSize counts every interned bracket name. The table is process-wide,
// so tests compare sizes rather than expect absolute ones.
func bracketSize() int {
	n := 0
	for _, sh := range shards {
		sh.mu.RLock()
		n += len(sh.bracket)
		sh.mu.RUnlock()
	}
	return n
}

func TestEqualNamesShareOneString(t *testing.T) {
	nets := NewNamer(fresh("share_n"))
	for _, tc := range []struct {
		name string
		want string
		call func() string
	}{
		{"Namer", "share_n42", func() string { return nets.Name(42) }},
		{"Namer zero", "share_n0", func() string { return nets.Name(0) }},
		{"Bracket", "share_bus[3]", func() string { return Bracket(fresh("share_bus"), 3) }},
		{"Bracket negative", "share_bus[-7]", func() string { return Bracket(fresh("share_bus"), -7) }},
	} {
		a, b := tc.call(), tc.call()
		if a != tc.want || b != tc.want {
			t.Errorf("%s = %q, %q; want %q", tc.name, a, b, tc.want)
		}
		if !same(a, b) {
			t.Errorf("%s: two calls returned equal strings with different backing arrays", tc.name)
		}
	}
	// Namers are separate name spaces: the same text reached two ways is still
	// the right text.
	if NewNamer("share_n4").Name(2) != nets.Name(42) || Bracket("share_n", 42) != "share_n[42]" {
		t.Error("equal text generated through different entry points differs")
	}
}

// TestNamerMatchesItoa: every index — across chunk boundaries, at both ends of
// the table, past its bound and below zero — names prefix + decimal(i).
func TestNamerMatchesItoa(t *testing.T) {
	const bound = namerChunkSize * namerChunks
	n := NewNamer("U")
	check := func(i int) {
		t.Helper()
		if got, want := n.Name(i), "U"+strconv.Itoa(i); got != want {
			t.Fatalf("Name(%d) = %q, want %q", i, got, want)
		}
	}
	for i := 0; i < 3*namerChunkSize+5; i++ {
		check(i)
	}
	for _, i := range []int{
		9*namerChunkSize - 1, 9 * namerChunkSize, 99999, 100000, 999999, 1000000,
		bound - namerChunkSize, bound - 1, bound, bound + 1, 1 << 40,
		-1, -namerChunkSize, -bound, -1 << 40,
	} {
		check(i)
	}
	// Inside the table a name is built once; outside it is built per call.
	if !same(n.Name(bound-1), n.Name(bound-1)) {
		t.Error("the last table entry was rebuilt on a second call")
	}
	held := 0
	for i := range n.chunks {
		if n.chunks[i].Load() != nil {
			held++
		}
	}
	// 0..3 from the dense run, then one each for 8, 9, 97, 976, 1023 (twice
	// named: bound-chunk and bound-1 share the last one).
	if want := 4 + 5; held != want {
		t.Errorf("%d chunks built, want %d: an index outside the table, or a neighbour's, built one", held, want)
	}
}

// TestNamerHitAllocatesNothing pins the hot path: naming a cell whose chunk
// exists costs no allocation.
func TestNamerHitAllocatesNothing(t *testing.T) {
	n := NewNamer("n")
	n.Name(5000)
	var sink string
	if allocs := testing.AllocsPerRun(100, func() { sink = n.Name(5001) }); allocs != 0 {
		t.Errorf("Name on a built chunk allocs/op = %v, want 0", allocs)
	}
	_ = sink
}

// corpus plays one elaboration: the name shapes the frontend and the netlist
// generate, a few thousand of them.
func corpus(nets, cells *Namer, bus string, visit func(string)) {
	for i := 0; i < 2000; i++ {
		visit(nets.Name(i))
		visit(cells.Name(i))
		visit(Bracket(bus, i%64))
	}
}

// corpusRuns makes the bus name new to the process-wide table on every run of
// the test (-count).
var corpusRuns int

func TestSecondPassOverCorpusAddsNothing(t *testing.T) {
	nets, cells := NewNamer("corpus_n"), NewNamer("corpus_U")
	corpusRuns++
	bus := "corpus_bus" + strconv.Itoa(corpusRuns)
	before := bracketSize()
	var first []string
	corpus(nets, cells, bus, func(s string) { first = append(first, s) })
	grown := bracketSize()
	if grown == before {
		t.Fatal("first pass over a new corpus interned nothing")
	}
	i := 0
	corpus(nets, cells, bus, func(s string) {
		if !same(s, first[i]) {
			t.Fatalf("name %d (%q) was rebuilt on the second pass", i, s)
		}
		i++
	})
	if after := bracketSize(); after != grown {
		t.Errorf("table grew from %d to %d strings on a second pass over the same corpus", grown, after)
	}
}

// TestConcurrentCallersAgree races goroutines on the same new names — for the
// namer, all of them on one chunk nobody has built — and each name must end up
// as one string, whoever published it. Meaningful under -race.
func TestConcurrentCallersAgree(t *testing.T) {
	const goroutines, names = 16, 500
	cells := NewNamer("race_U")
	got := make([][]string, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]string, 0, 2*names)
			<-start
			for i := 0; i < names; i++ {
				out = append(out, cells.Name(7*namerChunkSize+i), Bracket("race_b", i))
			}
			got[g] = out
		}(g)
	}
	close(start)
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := range got[0] {
			if got[g][i] != got[0][i] || !same(got[g][i], got[0][i]) {
				t.Fatalf("goroutine %d got its own copy of %q", g, got[0][i])
			}
		}
	}
}
