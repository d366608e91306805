package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	chatls "repro"
	"repro/internal/liberty"
	"repro/internal/llm"
	"repro/internal/remotecache"
	"repro/internal/synthrag"
)

var testLib = liberty.Nangate45()

// newTestServer builds a server over a fast retrieval-only database. Each
// test gets its own database so cache counters start from zero.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	db, err := synthrag.Build(synthrag.BuildConfig{Seed: 2, SkipSynth: true, Lib: testLib})
	if err != nil {
		t.Fatalf("build database: %v", err)
	}
	cfg.Model = llm.New(llm.GPT4o, 2)
	cfg.DB = db
	cfg.Lib = testLib
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

// newGate returns a Config.BeforeWork hook that parks every customization
// on its worker slot until release is closed; started is closed when the
// first one arrives.
func newGate() (hook func(), started, release chan struct{}) {
	started, release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	return func() {
		once.Do(func() { close(started) })
		<-release
	}, started, release
}

// waitMetric polls /metrics until name reads want.
func waitMetric(t *testing.T, url, name string, want float64) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for metricValue(t, url, name) != want {
		select {
		case <-deadline:
			t.Fatalf("%s never reached %v", name, want)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func postCustomize(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/customize", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/customize: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, b
}

// metricValue extracts a plain counter/gauge value from /metrics text.
func metricValue(t *testing.T, url, name string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("parse %s value %q: %v", name, rest, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in exposition", name)
	return 0
}

func TestCustomizeEndToEnd(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/v1/designs")
	if err != nil {
		t.Fatalf("GET /v1/designs: %v", err)
	}
	var ds []designJSON
	if err := json.NewDecoder(resp.Body).Decode(&ds); err != nil {
		t.Fatalf("decode designs: %v", err)
	}
	resp.Body.Close()
	found := false
	for _, d := range ds {
		if d.Name == "riscv32i" {
			found = true
		}
	}
	if !found {
		t.Fatalf("riscv32i missing from %d served designs", len(ds))
	}

	hr, body := postCustomize(t, ts.URL, `{"design":"riscv32i","k":2}`)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("customize status %d: %s", hr.StatusCode, body)
	}
	var out customizeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	if out.Design != "riscv32i" || out.Pipeline != "chatls" || out.K != 2 {
		t.Errorf("response header = %s/%s/k%d", out.Design, out.Pipeline, out.K)
	}
	if len(out.Samples) != 2 {
		t.Errorf("samples = %d, want 2", len(out.Samples))
	}
	if out.Baseline.Area <= 0 {
		t.Errorf("baseline area %v, want > 0", out.Baseline.Area)
	}
	if out.Valid > 0 && out.Script == "" {
		t.Error("valid samples but empty best script")
	}

	// Bad inputs.
	for body, want := range map[string]int{
		`{"design":"nope"}`:                    http.StatusNotFound,
		`{"design":"riscv32i","k":99}`:         http.StatusUnprocessableEntity,
		`{"design":"riscv32i","pipeline":"x"}`: http.StatusUnprocessableEntity,
		`not json`:                             http.StatusBadRequest,
	} {
		hr, _ := postCustomize(t, ts.URL, body)
		if hr.StatusCode != want {
			t.Errorf("POST %s: status %d, want %d", body, hr.StatusCode, want)
		}
	}
}

// TestTaskCacheHit is the acceptance check: a repeated POST must skip
// baseline synthesis, observable through the /metrics hit counters.
func TestTaskCacheHit(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := `{"design":"riscv32i","k":1}`
	if hr, body := postCustomize(t, ts.URL, req); hr.StatusCode != http.StatusOK {
		t.Fatalf("first POST: %d %s", hr.StatusCode, body)
	}
	if m := metricValue(t, ts.URL, "chatlsd_task_cache_misses_total"); m != 1 {
		t.Errorf("after first request: task cache misses = %v, want 1", m)
	}
	if h := metricValue(t, ts.URL, "chatlsd_task_cache_hits_total"); h != 0 {
		t.Errorf("after first request: task cache hits = %v, want 0", h)
	}

	// The analysis counters are process-wide, so they are read as deltas.
	mentorHits := metricValue(t, ts.URL, "chatlsd_mentor_cache_hits_total")
	mentorMisses := metricValue(t, ts.URL, "chatlsd_mentor_cache_misses_total")
	if mentorHits+mentorMisses < 1 {
		t.Errorf("after first request: mentor cache saw %v lookups, want >= 1", mentorHits+mentorMisses)
	}
	// Every run through the link prefix and every snapshot read takes one
	// workspace. The first request's baseline captured the checkpoint in a
	// new one, borrowing only its Timing and scratch, and released it; the
	// analysis read the checkpoint thawed into that workspace; its sample
	// restored into the same workspace and used the read's unedited thaw as
	// it was, so the image was thawed once. (The store is the server's own,
	// so the analysis was a miss.)
	wsReuses := metricValue(t, ts.URL, "synth_checkpoint_workspace_reuses_total")
	wsAllocs := metricValue(t, ts.URL, "synth_checkpoint_workspace_allocs_total")
	if wsAllocs != 1 || wsReuses != 2 {
		t.Errorf("after first request: workspace allocs/reuses = %v/%v, want 1/2", wsAllocs, wsReuses)
	}
	if got := metricValue(t, ts.URL, "synth_checkpoint_thaws_total"); got != 1 {
		t.Errorf("after first request: thaws = %v, want 1 (the analysis read's, which the sample reused)", got)
	}
	snapshotReads := metricValue(t, ts.URL, "chatlsd_mentor_snapshot_reads_total")
	if snapshotReads < 1 {
		t.Errorf("after first request: mentor snapshot reads = %v, want >= 1", snapshotReads)
	}
	// The baseline elaborated afresh and ran its compile unseen; the sample,
	// restored, computed what its own compile sizes and noted the key — which
	// thawed the post-link image, as the capturing run after it does.
	skipped := func() float64 { return metricValue(t, ts.URL, "synth_checkpoint_restore_thaws_skipped_total") }
	if got := skipped(); got != 0 {
		t.Errorf("after first request: restore thaws skipped = %v, want 0", got)
	}
	derived := func() [3]float64 {
		return [3]float64{
			metricValue(t, ts.URL, "synth_checkpoint_derived_hits_total"),
			metricValue(t, ts.URL, "synth_checkpoint_derived_misses_total"),
			metricValue(t, ts.URL, "synth_checkpoint_derived_captures_total"),
		}
	}
	if got, want := derived(), [3]float64{0, 1, 0}; got != want {
		t.Errorf("after first request: derived hits/misses/captures = %v, want %v", got, want)
	}
	ckptHits := metricValue(t, ts.URL, "synth_checkpoint_hits_total")

	if hr, body := postCustomize(t, ts.URL, req); hr.StatusCode != http.StatusOK {
		t.Fatalf("second POST: %d %s", hr.StatusCode, body)
	}
	if h := metricValue(t, ts.URL, "chatlsd_task_cache_hits_total"); h != 1 {
		t.Errorf("after repeat request: task cache hits = %v, want 1", h)
	}
	// The design was analysed by the first request: the repeat's one sample
	// reads it off the design's snapshot.
	if h := metricValue(t, ts.URL, "chatlsd_mentor_cache_hits_total"); h != mentorHits+1 {
		t.Errorf("after repeat request: mentor cache hits = %v, want %v", h, mentorHits+1)
	}
	if m := metricValue(t, ts.URL, "chatlsd_mentor_cache_misses_total"); m != mentorMisses {
		t.Errorf("after repeat request: mentor cache misses = %v, want %v", m, mentorMisses)
	}
	// The repeat's sample restores into the workspace the first one released.
	if r := metricValue(t, ts.URL, "synth_checkpoint_workspace_reuses_total"); r != wsReuses+1 {
		t.Errorf("after repeat request: workspace reuses = %v, want %v", r, wsReuses+1)
	}
	if a := metricValue(t, ts.URL, "synth_checkpoint_workspace_allocs_total"); a != wsAllocs {
		t.Errorf("after repeat request: workspace allocs = %v, want %v", a, wsAllocs)
	}
	// The design embedding is kept there too: the repeat request must not
	// re-run the GNN forward pass.
	if h := metricValue(t, ts.URL, "chatlsd_embed_cache_hits_total"); h < 1 {
		t.Errorf("embed cache hits = %v, want >= 1", h)
	}
	if n := metricValue(t, ts.URL, "chatlsd_requests_total"); n != 2 {
		t.Errorf("requests_total = %v, want 2", n)
	}
	// A key's second run captures its result, its third is served — into a
	// workspace the post-link image is then never thawed into; neither shows
	// in the post-link counters, which count one restore a request.
	if got, want := derived(), [3]float64{0, 2, 1}; got != want {
		t.Errorf("after repeat request: derived hits/misses/captures = %v, want %v", got, want)
	}
	if got := skipped(); got != 0 {
		t.Errorf("after repeat request: restore thaws skipped = %v, want 0", got)
	}
	thaws := metricValue(t, ts.URL, "synth_checkpoint_thaws_total")
	if hr, body := postCustomize(t, ts.URL, req); hr.StatusCode != http.StatusOK {
		t.Fatalf("third POST: %d %s", hr.StatusCode, body)
	}
	if got, want := derived(), [3]float64{1, 2, 1}; got != want {
		t.Errorf("after third request: derived hits/misses/captures = %v, want %v", got, want)
	}
	// The sample's script runs optimize_registers after its served compile,
	// which thaws the compiled netlist once; the run then ends with no thaw
	// of its own.
	if got := metricValue(t, ts.URL, "synth_checkpoint_thaws_total") - thaws; got != 1 {
		t.Errorf("third request thawed %v images, want 1", got)
	}
	if got := skipped(); got != 1 {
		t.Errorf("after third request: restore thaws skipped = %v, want 1", got)
	}
	if h := metricValue(t, ts.URL, "synth_checkpoint_hits_total"); h != ckptHits+2 {
		t.Errorf("after third request: checkpoint hits = %v, want %v", h, ckptHits+2)
	}
}

// TestSingleflight holds the leader in the worker via the test hook and
// checks that an identical concurrent request joins it rather than running
// (observable in the shared counter before the leader finishes), and that
// both callers get the same response.
func TestSingleflight(t *testing.T) {
	hook, started, release := newGate()
	s := newTestServer(t, Config{Workers: 2, QueueDepth: 8, BeforeWork: hook})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := `{"design":"riscv32i","k":1}`
	type reply struct {
		code int
		body []byte
	}
	replies := make(chan reply, 2)
	post := func() {
		hr, body := postCustomize(t, ts.URL, req)
		replies <- reply{hr.StatusCode, body}
	}
	go post()
	<-started // leader is on a worker, blocked in the hook
	go post()

	// The follower joins the in-flight call; the join is counted before the
	// leader completes, so the counter must reach 1 while work is blocked.
	waitMetric(t, ts.URL, "chatlsd_singleflight_shared_total", 1)
	close(release)

	a, b := <-replies, <-replies
	if a.code != http.StatusOK || b.code != http.StatusOK {
		t.Fatalf("statuses %d/%d, want 200/200", a.code, b.code)
	}
	if !bytes.Equal(a.body, b.body) {
		t.Error("coalesced requests returned different bodies")
	}
	// One execution: exactly one worker ran, so only one baseline miss.
	if m := metricValue(t, ts.URL, "chatlsd_task_cache_misses_total"); m != 1 {
		t.Errorf("task cache misses = %v, want 1 (single execution)", m)
	}
}

// TestAdmissionControl covers the admit path: the fixed bound on admitted
// requests, the worker slot, and the defers that undo both.
func TestAdmissionControl(t *testing.T) {
	idle := func(t *testing.T, url string) {
		t.Helper()
		for _, name := range []string{"overload_inflight", "chatlsd_workers_busy", "chatlsd_queue_depth"} {
			if v := metricValue(t, url, name); v != 0 {
				t.Errorf("%s = %v on an idle server, want 0", name, v)
			}
		}
	}

	// One worker, one waiting place: the third distinct request is shed.
	t.Run("saturated", func(t *testing.T) {
		hook, started, release := newGate()
		s := newTestServer(t, Config{Workers: 1, QueueDepth: 1, BeforeWork: hook})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()

		codes := make(chan int, 2)
		post := func(design string) {
			hr, _ := postCustomize(t, ts.URL, fmt.Sprintf(`{"design":%q,"k":1}`, design))
			codes <- hr.StatusCode
		}
		go post("riscv32i")
		<-started // worker occupied
		go post("dynamic_node")
		waitMetric(t, ts.URL, "chatlsd_queue_depth", 1) // second request admitted, waiting for the worker
		if v := metricValue(t, ts.URL, "chatlsd_workers_busy"); v != 1 {
			t.Errorf("workers_busy = %v, want 1", v)
		}

		hr, body := postCustomize(t, ts.URL, `{"design":"ethmac","k":1}`)
		if hr.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("saturated server returned %d, want 429", hr.StatusCode)
		}
		checkRetryable(t, hr, body)
		if n := metricValue(t, ts.URL, "chatlsd_rejected_total"); n != 1 {
			t.Errorf("rejected_total = %v, want 1", n)
		}
		if n := metricValue(t, ts.URL, "overload_shed_total"); n != 1 {
			t.Errorf("overload_shed_total = %v, want 1", n)
		}
		if n := getHealthz(t, ts.URL).Overload.ShedTotal; n != 1 {
			t.Errorf("healthz shed_total = %d, want 1", n)
		}

		close(release)
		for i := 0; i < 2; i++ {
			if c := <-codes; c != http.StatusOK {
				t.Errorf("admitted request finished %d, want 200", c)
			}
		}
		idle(t, ts.URL)
	})

	// A finished request has given back its worker and its place
	// before its reply is written, so a client that sends the next request
	// the moment it has the reply can never be shed — even with nowhere to
	// wait but the one worker.
	t.Run("back-to-back", func(t *testing.T) {
		s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		for i := 0; i < 200; i++ {
			hr, body := postCustomize(t, ts.URL, `{"design":"dynamic_node","pipeline":"gpt4o","k":1}`)
			if hr.StatusCode != http.StatusOK {
				t.Fatalf("sequential request %d: status %d: %s", i, hr.StatusCode, body)
			}
		}
		if n := metricValue(t, ts.URL, "chatlsd_rejected_total"); n != 0 {
			t.Errorf("rejected_total = %v, want 0", n)
		}
	})

	// The bound is a constant: a latency history that ends in completions
	// several times slower than the median (a first synthesis after warm
	// hits) is not congestion, and must not cost the server a place.
	t.Run("slow completions keep the bound", func(t *testing.T) {
		const workers, queue = 2, 2
		var delay atomic.Int64 // ns each customization spends on its worker
		var gated atomic.Bool
		release := make(chan struct{})
		open := sync.OnceFunc(func() { close(release) })
		s := newTestServer(t, Config{Workers: workers, QueueDepth: queue, BeforeWork: func() {
			if gated.Load() {
				<-release
				return
			}
			time.Sleep(time.Duration(delay.Load()))
		}})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		defer open() // before ts.Close, which waits for the gated requests

		sequential := func(n int) {
			for i := 0; i < n; i++ {
				hr, body := postCustomize(t, ts.URL, `{"design":"dynamic_node","pipeline":"gpt4o","k":1}`)
				if hr.StatusCode != http.StatusOK {
					t.Fatalf("sequential request %d: status %d: %s", i, hr.StatusCode, body)
				}
			}
		}
		sequential(40)
		delay.Store(int64(100 * time.Millisecond))
		sequential(4)
		if v := metricValue(t, ts.URL, "overload_limit"); v != workers+queue {
			t.Errorf("overload_limit = %v after slow completions, want %d", v, workers+queue)
		}

		gated.Store(true)
		codes := make(chan int, workers+queue)
		for i := 0; i < workers+queue; i++ {
			go func() {
				hr, _ := postCustomize(t, ts.URL,
					fmt.Sprintf(`{"design":"dynamic_node","requirement":"variant %d","pipeline":"gpt4o","k":1}`, i))
				codes <- hr.StatusCode
			}()
		}
		waitMetric(t, ts.URL, "overload_inflight", workers+queue)
		open()
		for i := 0; i < workers+queue; i++ {
			if c := <-codes; c != http.StatusOK {
				t.Errorf("concurrent request finished %d, want 200", c)
			}
		}
		idle(t, ts.URL)
	})

	// A panic on the worker slot: net/http aborts the leader's connection,
	// the followers are answered, and nothing stays held.
	t.Run("panic", func(t *testing.T) {
		const followers = 3
		hook, started, release := newGate()
		s := newTestServer(t, Config{Workers: 1, QueueDepth: 1, BeforeWork: func() {
			hook()
			panic("injected")
		}})
		ts := httptest.NewUnstartedServer(s.Handler())
		ts.Config.ErrorLog = log.New(io.Discard, "", 0) // net/http logs the recovered panic
		ts.Start()
		defer ts.Close()

		req := `{"design":"riscv32i","k":1}`
		leader := make(chan error, 1)
		go func() {
			resp, err := http.Post(ts.URL+"/v1/customize", "application/json", strings.NewReader(req))
			if err == nil {
				resp.Body.Close()
			}
			leader <- err
		}()
		<-started
		codes := make(chan int, followers)
		for i := 0; i < followers; i++ {
			go func() {
				hr, body := postCustomize(t, ts.URL, req)
				var e errorResponse
				if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
					t.Errorf("follower body is not an error reply: %s", body)
				}
				codes <- hr.StatusCode
			}()
		}
		waitMetric(t, ts.URL, "chatlsd_singleflight_shared_total", followers)
		close(release)

		if err := <-leader; err == nil {
			t.Error("leader got a reply, want an aborted connection")
		}
		for i := 0; i < followers; i++ {
			if c := <-codes; c != http.StatusInternalServerError {
				t.Errorf("follower of a panicked leader got %d, want 500", c)
			}
		}
		idle(t, ts.URL)
	})
}

// TestShutdownDrains verifies the stop path refuses new work immediately
// but does not return until every request in flight — running or still
// waiting for a worker — has its full response, unless the deadline passes
// first.
func TestShutdownDrains(t *testing.T) {
	type reply struct {
		code int
		body []byte
	}
	post := func(t *testing.T, url, design string, replies chan<- reply) {
		hr, body := postCustomize(t, url, fmt.Sprintf(`{"design":%q,"k":1}`, design))
		replies <- reply{hr.StatusCode, body}
	}
	checkDrained := func(t *testing.T, r reply, design string) {
		t.Helper()
		if r.code != http.StatusOK {
			t.Fatalf("drained request: %d %s", r.code, r.body)
		}
		var out customizeResponse
		if err := json.Unmarshal(r.body, &out); err != nil || out.Design != design {
			t.Errorf("drained response corrupt: %v %s", err, r.body)
		}
	}

	t.Run("running and waiting", func(t *testing.T) {
		hook, started, release := newGate()
		s := newTestServer(t, Config{Workers: 1, QueueDepth: 4, BeforeWork: hook})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()

		running, waiting := make(chan reply, 1), make(chan reply, 1)
		go post(t, ts.URL, "riscv32i", running)
		<-started
		go post(t, ts.URL, "dynamic_node", waiting)
		waitMetric(t, ts.URL, "chatlsd_queue_depth", 1)

		closed := make(chan struct{})
		go func() { s.Close(); close(closed) }()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(2 * time.Millisecond) {
			resp, err := http.Get(ts.URL + "/healthz")
			if err != nil {
				t.Fatalf("GET /healthz: %v", err)
			}
			resp.Body.Close()
			if resp.StatusCode == http.StatusServiceUnavailable {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("server never started shutting down")
			}
		}
		// New work is refused while draining — even a request identical to
		// the running one, which would otherwise join its flight.
		hr, body := postCustomize(t, ts.URL, `{"design":"riscv32i","k":1}`)
		if hr.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("draining server returned %d, want 503", hr.StatusCode)
		}
		checkRetryable(t, hr, body)
		select {
		case <-closed:
			t.Fatal("Close returned while requests were in flight")
		case <-time.After(20 * time.Millisecond):
		}

		close(release)
		<-closed
		checkDrained(t, <-running, "riscv32i")
		checkDrained(t, <-waiting, "dynamic_node")
	})

	t.Run("deadline", func(t *testing.T) {
		hook, started, release := newGate()
		s := newTestServer(t, Config{Workers: 1, QueueDepth: 4, BeforeWork: hook})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()

		running := make(chan reply, 1)
		go post(t, ts.URL, "riscv32i", running)
		<-started

		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Shutdown past its deadline returned %v, want context.DeadlineExceeded", err)
		}
		close(release)
		checkDrained(t, <-running, "riscv32i")
	})
}

// TestConcurrentHammer drives mixed concurrent traffic through the server;
// run under -race it checks the shared database, caches, and per-request
// pipelines really are safe for concurrent use.
func TestConcurrentHammer(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4, QueueDepth: 32})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	reqs := []string{
		`{"design":"riscv32i","k":2}`,
		`{"design":"riscv32i","k":1,"pipeline":"gpt4o"}`,
		`{"design":"dynamic_node","k":1}`,
		`{"design":"riscv32i","k":2,"requirement":"recover area, timing is met"}`,
		`{"design":"dynamic_node","k":1,"pipeline":"claude"}`,
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4*len(reqs))
	for round := 0; round < 4; round++ {
		for _, body := range reqs {
			wg.Add(1)
			go func(body string) {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/v1/customize", "application/json", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				defer resp.Body.Close()
				b, _ := io.ReadAll(resp.Body)
				switch resp.StatusCode {
				case http.StatusOK:
					var out customizeResponse
					if err := json.Unmarshal(b, &out); err != nil {
						errs <- fmt.Errorf("bad 200 body: %v", err)
					}
				case http.StatusTooManyRequests:
					// admission control under burst is fine
				default:
					errs <- fmt.Errorf("status %d: %s", resp.StatusCode, b)
				}
			}(body)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := metricValue(t, ts.URL, "chatlsd_requests_total"); n != 20 {
		t.Errorf("requests_total = %v, want 20", n)
	}
}

// TestSTAMetricsExposed checks that the timing engine's process-wide
// counters ride along on /metrics: a customize request runs synthesis, so
// full analyses must be non-zero and the dirty-node histogram present.
func TestSTAMetricsExposed(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	hr, body := postCustomize(t, ts.URL, `{"design":"riscv32i"}`)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("customize status %d: %s", hr.StatusCode, body)
	}

	if n := metricValue(t, ts.URL, "sta_full_analyses_total"); n <= 0 {
		t.Errorf("sta_full_analyses_total = %v, want > 0", n)
	}
	// The counters are process-wide, so only presence (not a specific value)
	// is asserted for the incremental side; the synthesis above exercises it.
	if n := metricValue(t, ts.URL, "sta_incremental_updates_total"); n < 0 {
		t.Errorf("sta_incremental_updates_total = %v, want >= 0", n)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if !bytes.Contains(b, []byte("sta_dirty_nodes_count")) {
		t.Error("sta_dirty_nodes histogram missing from /metrics exposition")
	}
}

// TestRuntimeAllocMetricsExposed: the collector's counters from
// runtime/metrics ride along on /metrics, and a customize request between two
// scrapes moves the heap's byte and object totals.
func TestRuntimeAllocMetricsExposed(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	bytes0 := metricValue(t, ts.URL, "go_heap_alloc_bytes_total")
	objects0 := metricValue(t, ts.URL, "go_heap_alloc_objects_total")
	if hr, body := postCustomize(t, ts.URL, `{"design":"riscv32i"}`); hr.StatusCode != http.StatusOK {
		t.Fatalf("customize status %d: %s", hr.StatusCode, body)
	}
	if n := metricValue(t, ts.URL, "go_heap_alloc_bytes_total"); n <= bytes0 {
		t.Errorf("go_heap_alloc_bytes_total = %v after a request, want > %v", n, bytes0)
	}
	if n := metricValue(t, ts.URL, "go_heap_alloc_objects_total"); n <= objects0 {
		t.Errorf("go_heap_alloc_objects_total = %v after a request, want > %v", n, objects0)
	}
	if n := metricValue(t, ts.URL, "go_gc_cycles_total"); n < 0 {
		t.Errorf("go_gc_cycles_total = %v, want >= 0", n)
	}
}

// TestPassKSharedSamplesCounter: a raw Pass@5 request whose samples repeat a
// script moves chatlsd_pass_k_samples_shared_total by exactly its repeated
// valid samples — counted here from the storeless evaluation's scripts — and
// a k = 1 request, which cannot repeat, leaves it alone.
func TestPassKSharedSamplesCounter(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const k = 5
	ctx := context.Background()
	repeats := func(name string) int {
		task, base, err := s.baselineTask(ctx, s.byName[name])
		if err != nil {
			t.Fatal(err)
		}
		tt := *task
		tt.Requirement = chatls.DefaultRequirement
		res, err := chatls.EvalTaskOpts(ctx, s.newPipeline("gpt4o"), &tt, base, k, s.cfg.Lib, chatls.EvalOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		scripts := map[string]bool{}
		for _, smp := range res.Samples {
			if smp.QoR != nil {
				scripts[smp.Script] = true
			}
		}
		return res.Valid - len(scripts)
	}
	var design string
	var want int
	for _, d := range s.cfg.Designs {
		if n := repeats(d.Name); n > 0 {
			design, want = d.Name, n
			break
		}
	}
	if design == "" {
		t.Fatal("no design's raw Pass@5 samples repeat a script")
	}

	post := func(k int) {
		t.Helper()
		body := fmt.Sprintf(`{"design":%q,"pipeline":"gpt4o","k":%d}`, design, k)
		if hr, b := postCustomize(t, ts.URL, body); hr.StatusCode != http.StatusOK {
			t.Fatalf("customize status %d: %s", hr.StatusCode, b)
		}
	}
	const name = "chatlsd_pass_k_samples_shared_total"
	if n := metricValue(t, ts.URL, name); n != 0 {
		t.Fatalf("%s = %v before any request, want 0", name, n)
	}
	post(k)
	if n := metricValue(t, ts.URL, name); n != float64(want) {
		t.Errorf("%s = %v after a %s k=%d request, want its %d repeated valid samples", name, n, design, k, want)
	}
	post(1)
	if n := metricValue(t, ts.URL, name); n != float64(want) {
		t.Errorf("%s = %v after a k=1 request, want it unchanged at %d", name, n, want)
	}
}

// TestHungTierCostsTheRequestDeadline: a remote tier that never answers
// holds a sample's result lookup only until the request's deadline, not for
// the client's own Timeout, so the reply (a 504) comes at about the
// deadline; the lookup gave up on the tier, which opens its breaker, so a
// second request right after it does not reach the tier at all.
func TestHungTierCostsTheRequestDeadline(t *testing.T) {
	hang := make(chan struct{})
	var calls atomic.Int64
	tier := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		calls.Add(1)
		<-hang
	}))
	defer tier.Close()
	defer close(hang) // first, or Close waits on the parked handlers
	const clientTimeout, deadline = 5 * time.Second, 100 * time.Millisecond
	rc := remotecache.NewClient(remotecache.ClientConfig{BaseURL: tier.URL, Timeout: clientTimeout, Warnf: func(string, ...any) {}})
	s := newTestServer(t, Config{RemoteCache: rc, RequestTimeout: deadline})
	// The baseline is kept before the request, so the deadline is spent on
	// the sample and not on the design's first synthesis.
	if _, _, err := s.baselineTask(context.Background(), s.byName["riscv32i"]); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	start := time.Now()
	resp, body := postCustomize(t, ts.URL, `{"design":"riscv32i","pipeline":"gpt4o","k":1}`)
	took := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, body)
	}
	if took > clientTimeout/5 {
		t.Errorf("reply took %v, want about the request deadline (%v), not the client Timeout (%v)", took, deadline, clientTimeout)
	}
	if !rc.Degraded() {
		t.Error("the hung tier was never asked, or the lookup did not give up on it")
	}
	asked := calls.Load()
	postCustomize(t, ts.URL, `{"design":"riscv32i","pipeline":"gpt4o","k":1}`)
	if n := calls.Load(); n != asked {
		t.Errorf("a second request asked the hung tier %d more times, want none while its breaker is open", n-asked)
	}
}
