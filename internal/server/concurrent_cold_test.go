package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// TestConcurrentColdRequestsMatchSequential: cold /v1/customize requests
// that reach the baseline slots, the retrieve cache and the checkpoint
// store, with the analyses and embeddings kept on its snapshots, at the same
// moment must get, byte for byte, the
// replies a server fed the same requests one at a time gives. Run under
// -race (make race does) it also checks those shared structures for data
// races.
func TestConcurrentColdRequestsMatchSequential(t *testing.T) {
	// Three requests a design share its cold baseline, embedding and
	// analysis; distinct requirements keep singleflight from merging them.
	designNames := []string{"aes", "dynamic_node", "ethmac", "jpeg", "riscv32i", "swerv"}
	reqs := make([]string, 0, len(designNames)*3)
	for i, d := range designNames {
		for r := 0; r < 3; r++ {
			reqs = append(reqs, fmt.Sprintf(`{"design":%q,"requirement":"optimize variant %d for timing","k":1}`, d, i*3+r))
		}
	}
	post := func(url string, i int) string {
		resp, b := postCustomize(t, url, reqs[i])
		if resp.StatusCode != http.StatusOK {
			t.Errorf("req %d: status %d: %s", i, resp.StatusCode, b)
		}
		return string(b)
	}

	// The oracle runs first; each server has its own baselines and
	// checkpoint store, so the concurrent one below starts as cold as this
	// one did.
	seq := httptest.NewServer(newTestServer(t, Config{Workers: 1}).Handler())
	defer seq.Close()
	want := make([]string, len(reqs))
	for i := range reqs {
		want[i] = post(seq.URL, i)
	}

	// Every request gets a worker and parks in BeforeWork until all of them
	// hold one, so they leave the barrier together, before any cache fills.
	var barrier sync.WaitGroup
	barrier.Add(len(reqs))
	conc := httptest.NewServer(newTestServer(t, Config{
		Workers: len(reqs), QueueDepth: 1,
		BeforeWork: func() { barrier.Done(); barrier.Wait() },
	}).Handler())
	defer conc.Close()
	got := make([]string, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = post(conc.URL, i)
		}(i)
	}
	wg.Wait()

	for i := range reqs {
		if got[i] != want[i] {
			t.Errorf("request %d (%s): concurrent reply differs from sequential\nconcurrent: %s\nsequential: %s",
				i, reqs[i], got[i], want[i])
		}
	}
}
