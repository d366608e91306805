package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/synthrag"
)

// TestBatchedCustomizeByteIdentical is the continuous-batching correctness
// hammer: many concurrent /v1/customize requests driven through a server
// whose embedding path runs behind the admission queue must produce, byte
// for byte, the responses a batching-disabled server produces for the same
// requests. Run under -race (make check does) this also shakes out data
// races in the batcher handoff. Two separate databases are built from the
// same seed because EnableBatching mutates the database in place — the
// builds are bit-identical, so any response difference is the batcher's.
func TestBatchedCustomizeByteIdentical(t *testing.T) {
	build := func() *synthrag.Database {
		db, err := synthrag.Build(synthrag.BuildConfig{Seed: 2, SkipSynth: true, Lib: testLib})
		if err != nil {
			t.Fatalf("build database: %v", err)
		}
		return db
	}
	// Distinct designs and requirements defeat both the embed LRU (per
	// design) and singleflight (per full request), so the batcher sees real
	// concurrent traffic on the GNN and text embedding paths.
	designNames := []string{"aes", "dynamic_node", "ethmac", "jpeg", "riscv32i", "swerv"}
	reqs := make([]string, 0, len(designNames)*3)
	for i, d := range designNames {
		for r := 0; r < 3; r++ {
			reqs = append(reqs, fmt.Sprintf(`{"design":%q,"requirement":"optimize variant %d for timing","k":1}`, d, i*3+r))
		}
	}

	// Coalescing is asserted below, so the requests must meet in the batcher
	// by construction rather than by scheduling luck: every request gets a
	// worker, parks in BeforeWork until all of them hold one, and leaves the
	// barrier with the baseline already cached — what remains before the
	// first embedding (mentor analysis, graph build) is short against the
	// 100 ms window.
	newSrv := func(cfg Config) *Server {
		var barrier sync.WaitGroup
		barrier.Add(len(reqs))
		cfg.BeforeWork = func() { barrier.Done(); barrier.Wait() }
		cfg.Workers, cfg.QueueDepth = len(reqs), 1
		cfg.Model = llm.New(llm.GPT4o, 2)
		cfg.Lib = testLib
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("server.New: %v", err)
		}
		t.Cleanup(s.Close)
		for _, d := range designNames {
			if _, _, err := s.baselineTask(context.Background(), s.byName[d]); err != nil {
				t.Fatalf("baseline %s: %v", d, err)
			}
		}
		return s
	}
	batched := newSrv(Config{DB: build(), BatchWindow: 100 * time.Millisecond, BatchMax: 8})
	serial := newSrv(Config{DB: build(), DisableBatching: true})
	tsBatched := httptest.NewServer(batched.Handler())
	defer tsBatched.Close()
	tsSerial := httptest.NewServer(serial.Handler())
	defer tsSerial.Close()

	hammer := func(url string) []string {
		out := make([]string, len(reqs))
		var wg sync.WaitGroup
		for i, body := range reqs {
			wg.Add(1)
			go func(i int, body string) {
				defer wg.Done()
				resp, b := postCustomize(t, url, body)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("req %d: status %d: %s", i, resp.StatusCode, b)
					return
				}
				out[i] = string(b)
			}(i, body)
		}
		wg.Wait()
		return out
	}

	got := hammer(tsBatched.URL)
	want := hammer(tsSerial.URL)
	if t.Failed() {
		t.FailNow()
	}
	for i := range reqs {
		if got[i] != want[i] {
			t.Errorf("request %d (%s): batched response differs from serial\nbatched: %s\nserial:  %s",
				i, reqs[i], got[i], want[i])
		}
	}

	st := batched.cfg.DB.BatchStats()
	if st.Items == 0 {
		t.Fatal("batched server processed no items through the admission queue")
	}
	if st.Flushes >= st.Items {
		t.Errorf("no coalescing happened: %d flushes for %d items", st.Flushes, st.Items)
	}
	t.Logf("batcher: %d items across %d flushes (avg batch %.1f)",
		st.Items, st.Flushes, float64(st.Items)/float64(st.Flushes))
	if sst := serial.cfg.DB.BatchStats(); sst.Items != 0 {
		t.Errorf("serial server unexpectedly batched %d items", sst.Items)
	}
}

// TestHealthzEchoesBatchConfig: the effective batching settings must be
// visible on /healthz, including non-default overrides.
func TestHealthzEchoesBatchConfig(t *testing.T) {
	s := newTestServer(t, Config{
		Workers: 1, QueueDepth: 4,
		BatchWindow: 5 * time.Millisecond, BatchMax: 4,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	var hz healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	if !hz.BatchEnabled || hz.BatchWindowNS != (5*time.Millisecond).Nanoseconds() || hz.BatchMax != 4 {
		t.Errorf("healthz batch echo = enabled=%v window=%dns max=%d, want enabled 5ms/4",
			hz.BatchEnabled, hz.BatchWindowNS, hz.BatchMax)
	}
}
