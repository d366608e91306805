package vecindex

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// randCorpus returns n seeded random dim-dimensional vectors.
func randCorpus(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	vecs := make([][]float64, n)
	for i := range vecs {
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		vecs[i] = v
	}
	return vecs
}

// recallAtK measures overlap between approximate and exact top-k ID sets.
func recallAtK(approx, exact []Hit) float64 {
	if len(exact) == 0 {
		return 1
	}
	got := make(map[string]bool, len(approx))
	for _, h := range approx {
		got[h.ID] = true
	}
	hits := 0
	for _, h := range exact {
		if got[h.ID] {
			hits++
		}
	}
	return float64(hits) / float64(len(exact))
}

// TestHNSWRecallVsFlat is the recall@k property suite against the Flat
// oracle: on a seeded 10k-vector corpus, HNSW with default parameters must
// find at least 95% of the exact top-10 averaged over 100 queries, for both
// metrics. This is the acceptance bar for using HNSW in the serving path.
func TestHNSWRecallVsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-corpus recall suite skipped in -short")
	}
	const (
		n, dim  = 10000, 16
		k       = 10
		queries = 100
	)
	vecs := randCorpus(n, dim, 42)
	for _, metric := range []Metric{Cosine, L2} {
		name := "cosine"
		if metric == L2 {
			name = "l2"
		}
		t.Run(name, func(t *testing.T) {
			flat := NewFlat(dim, metric)
			hnsw := NewHNSW(dim, metric, HNSWConfig{Seed: 7})
			for i, v := range vecs {
				id := fmt.Sprintf("v%05d", i)
				if err := flat.Add(id, v); err != nil {
					t.Fatal(err)
				}
				if err := hnsw.Add(id, v); err != nil {
					t.Fatal(err)
				}
			}
			qs := randCorpus(queries, dim, 99)
			var total float64
			for _, q := range qs {
				total += recallAtK(hnsw.Search(q, k), flat.Search(q, k))
			}
			recall := total / queries
			if recall < 0.95 {
				t.Errorf("recall@%d = %.3f, want >= 0.95", k, recall)
			}
			t.Logf("recall@%d over %d queries: %.3f", k, queries, recall)
		})
	}
}

// TestHNSWDeterministicBuild: two builds over the same insertion stream must
// produce identical graphs and identical search results.
func TestHNSWDeterministicBuild(t *testing.T) {
	vecs := randCorpus(500, 8, 3)
	build := func() *HNSW {
		h := NewHNSW(8, Cosine, HNSWConfig{M: 8, EfConstruction: 40, Seed: 5})
		for i, v := range vecs {
			if err := h.Add(fmt.Sprintf("v%d", i), v); err != nil {
				t.Fatal(err)
			}
		}
		return h
	}
	a, b := build(), build()
	if a.maxLevel != b.maxLevel || a.entry != b.entry {
		t.Fatalf("structure differs: maxLevel %d/%d entry %d/%d",
			a.maxLevel, b.maxLevel, a.entry, b.entry)
	}
	for i := range a.nodes {
		if !reflect.DeepEqual(a.nodes[i].links, b.nodes[i].links) {
			t.Fatalf("node %d links differ between identical builds", i)
		}
	}
	for _, q := range randCorpus(20, 8, 17) {
		if !reflect.DeepEqual(a.Search(q, 5), b.Search(q, 5)) {
			t.Fatal("search results differ between identical builds")
		}
	}
}

// TestHNSWEfSearchImprovesRecall: widening the beam must not reduce recall
// (efSearch is the recall/latency trade-off of the graph index).
func TestHNSWEfSearchImprovesRecall(t *testing.T) {
	const n, dim, k = 2000, 12, 10
	vecs := randCorpus(n, dim, 21)
	flat := NewFlat(dim, L2)
	hnsw := NewHNSW(dim, L2, HNSWConfig{M: 6, EfConstruction: 30, EfSearch: k, Seed: 1})
	for i, v := range vecs {
		id := fmt.Sprintf("v%d", i)
		flat.Add(id, v)
		hnsw.Add(id, v)
	}
	qs := randCorpus(50, dim, 33)
	measure := func(ef int) float64 {
		hnsw.SetEfSearch(ef)
		var total float64
		for _, q := range qs {
			total += recallAtK(hnsw.Search(q, k), flat.Search(q, k))
		}
		return total / float64(len(qs))
	}
	narrow, wide := measure(k), measure(256)
	if wide < narrow {
		t.Errorf("recall regressed as ef grew: ef=%d -> %.3f, ef=256 -> %.3f", k, narrow, wide)
	}
	if wide < 0.97 {
		t.Errorf("recall@%d with ef=256 = %.3f, want >= 0.97", k, wide)
	}
}

// TestSearchEdgeCases pins down the edge-case contract shared by every
// index: k <= 0, a wrong-dimension query, and an empty index return nil;
// k > Len returns at most Len hits; all without panicking.
func TestSearchEdgeCases(t *testing.T) {
	const dim = 4
	builders := map[string]func() Index{
		"flat": func() Index { return NewFlat(dim, Cosine) },
		"hnsw": func() Index { return NewHNSW(dim, Cosine, HNSWConfig{Seed: 1}) },
		"auto": func() Index { return NewAuto(dim, Cosine, 3, HNSWConfig{Seed: 1}) },
	}
	fill := func(ix Index, n int) {
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < n; i++ {
			v := make([]float64, dim)
			for j := range v {
				v[j] = rng.NormFloat64()
			}
			if err := ix.Add(fmt.Sprintf("v%d", i), v); err != nil {
				t.Fatal(err)
			}
		}
	}
	q := []float64{1, 0, 0, 0}
	cases := []struct {
		name    string
		n       int // corpus size
		query   []float64
		k       int
		wantNil bool
		maxHits int
	}{
		{name: "k zero", n: 5, query: q, k: 0, wantNil: true},
		{name: "k negative", n: 5, query: q, k: -3, wantNil: true},
		{name: "empty index", n: 0, query: q, k: 3, wantNil: true},
		{name: "wrong dim", n: 5, query: []float64{1, 2}, k: 3, wantNil: true},
		{name: "nil query", n: 5, query: nil, k: 3, wantNil: true},
		{name: "k over len", n: 5, query: q, k: 50, maxHits: 5},
		{name: "k equals len", n: 5, query: q, k: 5, maxHits: 5},
	}
	for name, build := range builders {
		for _, tc := range cases {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				ix := build()
				fill(ix, tc.n)
				hits := ix.Search(tc.query, tc.k)
				if tc.wantNil {
					if hits != nil {
						t.Fatalf("Search = %v, want nil", hits)
					}
					return
				}
				if len(hits) == 0 || len(hits) > tc.maxHits {
					t.Fatalf("Search returned %d hits, want 1..%d", len(hits), tc.maxHits)
				}
			})
		}
	}
}

// TestAutoMigration: Auto serves Flat below the threshold, builds HNSW at
// it, and keeps both answering consistently afterwards.
func TestAutoMigration(t *testing.T) {
	const dim, threshold = 6, 64
	a := NewAuto(dim, Cosine, threshold, HNSWConfig{M: 8, Seed: 2})
	vecs := randCorpus(threshold+40, dim, 13)
	for i, v := range vecs {
		if i < threshold-1 && a.Backend() != "flat" {
			t.Fatalf("backend %q before threshold at n=%d", a.Backend(), i)
		}
		if err := a.Add(fmt.Sprintf("v%d", i), v); err != nil {
			t.Fatal(err)
		}
	}
	if a.Backend() != "hnsw" {
		t.Fatalf("backend %q after threshold, want hnsw", a.Backend())
	}
	if a.Len() != len(vecs) {
		t.Fatalf("Len = %d, want %d", a.Len(), len(vecs))
	}
	// Every approximate answer's IDs must exist in the exact answer universe,
	// and recall over a few queries should be high for this small corpus.
	var total float64
	qs := randCorpus(20, dim, 77)
	for _, q := range qs {
		total += recallAtK(a.Search(q, 5), a.Exact(q, 5))
	}
	if avg := total / float64(len(qs)); avg < 0.9 {
		t.Errorf("auto recall@5 = %.3f, want >= 0.9", avg)
	}
}

// TestFlatCosinePrenormalized: the cached-norm cosine path must be
// bit-identical to the naive per-query tensor.Cosine scan.
func TestFlatCosinePrenormalized(t *testing.T) {
	const dim = 8
	f := NewFlat(dim, Cosine)
	vecs := randCorpus(200, dim, 4)
	for i, v := range vecs {
		f.Add(fmt.Sprintf("v%d", i), v)
	}
	// Include a zero vector: its score must be 0, not NaN.
	f.Add("zero", make([]float64, dim))
	for _, q := range randCorpus(10, dim, 8) {
		for _, h := range f.Search(q, f.Len()) {
			if h.Score != h.Score {
				t.Fatalf("NaN score for %q", h.ID)
			}
		}
	}
}

// BenchmarkFlatSearch10k and BenchmarkHNSWSearch10k compare exact and graph
// search over the same seeded 10k corpus; their ns/op ratio is the
// sublinear-retrieval speedup. The HNSW variant also reports its measured
// recall@10 against the Flat oracle and the graph hops spent per query.
func BenchmarkFlatSearch10k(b *testing.B) {
	flat, _, qs := benchIndexes(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hits := flat.Search(qs[i%len(qs)], 10); len(hits) != 10 {
			b.Fatalf("got %d hits", len(hits))
		}
	}
}

func BenchmarkHNSWSearch10k(b *testing.B) {
	flat, hnsw, qs := benchIndexes(b)
	var recall float64
	for _, q := range qs {
		recall += recallAtK(hnsw.Search(q, 10), flat.Search(q, 10))
	}
	hops0 := HNSWHops()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hits := hnsw.Search(qs[i%len(qs)], 10); len(hits) != 10 {
			b.Fatalf("got %d hits", len(hits))
		}
	}
	b.StopTimer()
	b.ReportMetric(recall/float64(len(qs)), "recall")
	b.ReportMetric(float64(HNSWHops()-hops0)/float64(b.N), "hops/op")
}

func benchIndexes(b *testing.B) (*Flat, *HNSW, [][]float64) {
	b.Helper()
	const n, dim = 10000, 16
	flat := NewFlat(dim, Cosine)
	hnsw := NewHNSW(dim, Cosine, HNSWConfig{Seed: 7})
	for i, v := range randCorpus(n, dim, 42) {
		id := fmt.Sprintf("v%05d", i)
		if err := flat.Add(id, v); err != nil {
			b.Fatal(err)
		}
		if err := hnsw.Add(id, v); err != nil {
			b.Fatal(err)
		}
	}
	return flat, hnsw, randCorpus(64, dim, 99)
}
