package vecindex

import "fmt"

// DefaultAutoThreshold is the corpus size at which Auto switches from exact
// Flat scans to the HNSW graph. Below it a brute-force scan over a few
// hundred vectors is faster than graph traversal and exact besides; above
// it the scan's linear cost starts to dominate retrieval latency.
const DefaultAutoThreshold = 1024

// Auto is an Index that serves exact Flat searches for small corpora and
// transparently migrates to HNSW once the corpus crosses a size threshold,
// so synthrag retrieval stays exact on toy libraries and sublinear on
// production-scale ones without callers choosing. The Flat index is always
// maintained: it is the exactness oracle and the migration source.
type Auto struct {
	flat      *Flat
	hnsw      *HNSW
	threshold int
	cfg       HNSWConfig
}

// NewAuto creates an auto-selecting index. threshold <= 0 selects
// DefaultAutoThreshold. cfg seeds the HNSW built at migration (zero value
// for defaults).
func NewAuto(dim int, metric Metric, threshold int, cfg HNSWConfig) *Auto {
	if threshold <= 0 {
		threshold = DefaultAutoThreshold
	}
	return &Auto{flat: NewFlat(dim, metric), threshold: threshold, cfg: cfg}
}

// Add inserts a vector, building the HNSW graph when the corpus crosses the
// threshold. Like HNSW.Add it must not run concurrently with Search.
func (a *Auto) Add(id string, vec []float64) error {
	if err := a.flat.Add(id, vec); err != nil {
		return err
	}
	if a.hnsw != nil {
		return a.hnsw.Add(id, vec)
	}
	if a.flat.Len() >= a.threshold {
		h := NewHNSW(a.flat.dim, a.flat.Metric, a.cfg)
		for i, v := range a.flat.vecs {
			if err := h.Add(a.flat.ids[i], v); err != nil {
				return fmt.Errorf("auto index migration: %w", err)
			}
		}
		a.hnsw = h
	}
	return nil
}

// Search delegates to HNSW above the threshold, Flat below it.
func (a *Auto) Search(query []float64, k int) []Hit {
	if a.hnsw != nil {
		return a.hnsw.Search(query, k)
	}
	return a.flat.Search(query, k)
}

// Len returns the number of stored vectors.
func (a *Auto) Len() int { return a.flat.Len() }

// Backend names the index currently answering searches ("flat" or "hnsw").
func (a *Auto) Backend() string {
	if a.hnsw != nil {
		return "hnsw"
	}
	return "flat"
}

// Exact always searches the Flat oracle, regardless of backend.
func (a *Auto) Exact(query []float64, k int) []Hit { return a.flat.Search(query, k) }
