package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
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

// checkRetryable asserts the error-body contract on a retryable response: a
// constant one-second Retry-After header and a JSON body with
// retryable=true.
func checkRetryable(t *testing.T, hr *http.Response, body []byte) {
	t.Helper()
	if got := hr.Header.Get("Retry-After"); got != "1" {
		t.Errorf("status %d Retry-After = %q, want \"1\"", hr.StatusCode, got)
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

// TestHealthzReportsOverloadState checks the cold-start overload report: the
// admission bound is workers+queue, nothing shed, and no circuit breaker at
// all — pipeline stages run once and have none, and the remote tier's is
// reported only when a tier is configured — neither in /healthz nor as a
// breaker_state_* gauge in /metrics.
func TestHealthzReportsOverloadState(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, QueueDepth: 3})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ov := getHealthz(t, ts.URL).Overload
	if ov.Limit != 5 {
		t.Errorf("limit = %d, want 5 (workers+queue)", ov.Limit)
	}
	if ov.Inflight != 0 || ov.ShedTotal != 0 {
		t.Errorf("idle server not idle: %+v", ov)
	}
	if len(ov.Breakers) != 0 {
		t.Errorf("breakers = %v, want none (no stage breakers, no remote tier)", ov.Breakers)
	}
	if v := metricValue(t, ts.URL, "overload_limit"); v != 5 {
		t.Errorf("overload_limit metric = %v, want 5", v)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if strings.Contains(string(b), "breaker_state_") {
		t.Error("/metrics exposes a breaker_state_* gauge with no remote tier configured")
	}
}
