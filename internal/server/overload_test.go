package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/overload"
	"repro/internal/resilience"
)

// getHealthz decodes the health report.
func getHealthz(t *testing.T, url string) healthzResponse {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	var h healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	return h
}

// checkRetryable asserts the error-body contract on a shed response: a
// Retry-After header and a JSON body with retryable=true.
func checkRetryable(t *testing.T, hr *http.Response, body []byte) {
	t.Helper()
	if hr.Header.Get("Retry-After") == "" {
		t.Errorf("status %d missing Retry-After header", hr.StatusCode)
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body not JSON: %v (%s)", err, body)
	}
	if !e.Retryable {
		t.Errorf("status %d body retryable=false, want true: %s", hr.StatusCode, body)
	}
	if e.Error == "" {
		t.Errorf("status %d body has empty error message", hr.StatusCode)
	}
}

// TestCostShedRejectsBeforeAnyWork primes the cost model so the expected
// end-to-end request cost exceeds the per-request deadline: requests must
// be shed with 503 + Retry-After before any work starts (BeforeWork
// never fires), except the deterministic 1-in-8 probe-through that lets
// the model re-learn.
func TestCostShedRejectsBeforeAnyWork(t *testing.T) {
	costs := overload.NewCostModel(0)
	costs.Observe(overload.StageRequest, 10*time.Second)
	var worked atomic.Int64
	s := newTestServer(t, Config{
		Workers:        2,
		QueueDepth:     4,
		RequestTimeout: 2 * time.Second,
		Costs:          costs,
		BeforeWork:     func() { worked.Add(1) },
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := `{"design":"riscv32i","k":1}`
	for i := 1; i <= 7; i++ {
		hr, body := postCustomize(t, ts.URL, req)
		if hr.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("request %d: status %d, want 503 (cost shed): %s", i, hr.StatusCode, body)
		}
		checkRetryable(t, hr, body)
		// Retry-After is the learned request cost rounded up to seconds.
		if got := hr.Header.Get("Retry-After"); got != "10" {
			t.Errorf("request %d: Retry-After = %q, want \"10\"", i, got)
		}
	}
	if n := worked.Load(); n != 0 {
		t.Fatalf("shed requests reached a worker %d times, want 0", n)
	}

	// The 8th would-be shed probes through so the model can re-learn a
	// recovered backend.
	hr, body := postCustomize(t, ts.URL, req)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("probe-through request: status %d, want 200: %s", hr.StatusCode, body)
	}
	if n := worked.Load(); n != 1 {
		t.Errorf("probe-through ran %d customizations, want 1", n)
	}

	// One cheap observation moves a 10s EWMA only 20% of the way down —
	// still far above the deadline, so shedding resumes.
	hr, body = postCustomize(t, ts.URL, req)
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-probe request: status %d, want 503: %s", hr.StatusCode, body)
	}

	if v := metricValue(t, ts.URL, "overload_shed_total"); v != 8 {
		t.Errorf("overload_shed_total = %v, want 8", v)
	}
	ov := getHealthz(t, ts.URL).Overload
	if ov.ShedTotal != 8 {
		t.Errorf("healthz shed_total = %d, want 8", ov.ShedTotal)
	}
	if ov.RequestCostNS <= (2 * time.Second).Nanoseconds() {
		t.Errorf("healthz expected_request_cost_ns = %d, want > deadline", ov.RequestCostNS)
	}
}

// TestHealthzReportsOverloadState checks the cold-start overload report: the
// admission bound is workers+queue, every stage breaker is closed, no
// brownout, and no remotecache breaker when no remote tier is configured.
func TestHealthzReportsOverloadState(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, QueueDepth: 3})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ov := getHealthz(t, ts.URL).Overload
	if ov.Limit != 5 {
		t.Errorf("limit = %d, want 5 (workers+queue)", ov.Limit)
	}
	if ov.Inflight != 0 || ov.ShedTotal != 0 || ov.Brownout {
		t.Errorf("idle server not idle: %+v", ov)
	}
	for _, comp := range []string{
		resilience.CompMentor, resilience.CompRAGEmbed,
		resilience.CompRAGRetrieve, resilience.CompExpert,
	} {
		if st := ov.Breakers[comp]; st != "closed" {
			t.Errorf("breaker %s = %q, want closed", comp, st)
		}
	}
	if _, ok := ov.Breakers[resilience.CompRemoteCache]; ok {
		t.Error("remotecache breaker reported with no remote tier configured")
	}
	if v := metricValue(t, ts.URL, "overload_limit"); v != 5 {
		t.Errorf("overload_limit metric = %v, want 5", v)
	}
	if v := metricValue(t, ts.URL, "breaker_state_"+metricName(resilience.CompRAGEmbed)); v != 0 {
		t.Errorf("breaker_state gauge = %v, want 0 (closed)", v)
	}
}

// TestBrownoutClampsPassK drives a full window of sheds through a saturated
// server, then checks brownout mode: a k>1 request is served with one sample
// and an explicit "brownout" degradation marker, and sustained healthy
// traffic exits the mode so k>1 service recovers.
func TestBrownoutClampsPassK(t *testing.T) {
	hook, started, release := newGate()
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1, BeforeWork: hook})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	codes := make(chan int, 2)
	post := func(body string) {
		hr, _ := postCustomize(t, ts.URL, body)
		codes <- hr.StatusCode
	}
	go post(`{"design":"riscv32i","k":1}`)
	<-started // worker occupied
	go post(`{"design":"dynamic_node","k":1}`)
	waitMetric(t, ts.URL, "overload_inflight", 2) // second request admitted, waiting for the worker

	// A full brownout window of distinct requests, every one shed at the
	// saturated admission bound.
	for i := 0; i < 64; i++ {
		hr, body := postCustomize(t, ts.URL,
			fmt.Sprintf(`{"design":"ethmac","requirement":"variant %d","k":1}`, i))
		if hr.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("saturated request %d: status %d, want 429: %s", i, hr.StatusCode, body)
		}
		checkRetryable(t, hr, body)
	}
	if ov := getHealthz(t, ts.URL).Overload; !ov.Brownout {
		t.Fatal("full window of sheds did not enter brownout")
	}
	if v := metricValue(t, ts.URL, "overload_brownout_active"); v != 1 {
		t.Errorf("overload_brownout_active = %v, want 1", v)
	}
	if v := metricValue(t, ts.URL, "overload_brownout_entries_total"); v < 1 {
		t.Errorf("overload_brownout_entries_total = %v, want >= 1", v)
	}

	close(release)
	for i := 0; i < 2; i++ {
		if c := <-codes; c != http.StatusOK {
			t.Errorf("blocked request finished %d, want 200", c)
		}
	}

	// Browned out: a k=2 request is served degraded — one sample, marked.
	hr, body := postCustomize(t, ts.URL, `{"design":"riscv32i","k":2}`)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("browned-out request: status %d: %s", hr.StatusCode, body)
	}
	var out customizeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decode browned-out response: %v", err)
	}
	if out.K != 1 || len(out.Samples) != 1 {
		t.Errorf("browned-out k/samples = %d/%d, want 1/1", out.K, len(out.Samples))
	}
	if !strings.Contains(strings.Join(out.Degraded, ","), "brownout") {
		t.Errorf("browned-out response degraded = %v, want to contain \"brownout\"", out.Degraded)
	}

	// Healthy traffic dilutes the window below the exit fraction.
	recovery := time.After(30 * time.Second)
	for getHealthz(t, ts.URL).Overload.Brownout {
		select {
		case <-recovery:
			t.Fatal("brownout never exited under healthy traffic")
		default:
		}
		if hr, body := postCustomize(t, ts.URL, `{"design":"riscv32i","k":1}`); hr.StatusCode != http.StatusOK {
			t.Fatalf("recovery request: status %d: %s", hr.StatusCode, body)
		}
	}
	hr, body = postCustomize(t, ts.URL, `{"design":"riscv32i","k":2}`)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery request: status %d: %s", hr.StatusCode, body)
	}
	out = customizeResponse{}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decode post-recovery response: %v", err)
	}
	if out.K != 2 || len(out.Samples) != 2 {
		t.Errorf("post-recovery k/samples = %d/%d, want 2/2", out.K, len(out.Samples))
	}
	if strings.Contains(strings.Join(out.Degraded, ","), "brownout") {
		t.Errorf("post-recovery response still marked brownout: %v", out.Degraded)
	}
}
