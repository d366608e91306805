package remotecache

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/qorlog"
)

func testRecord(design string, area float64) qorlog.Record {
	return qorlog.Record{
		Design: design, Period: 1.5, WNS: -0.25, CPS: 1.75, TNS: -1.5,
		Area: area, Leakage: 0.125, Cells: 42, Seq: 7, Violations: 3,
	}
}

func testKey(s string) qorlog.Key { return qorlog.KeyOf(s) }

// bg is the context of calls whose caller has no deadline.
var bg = context.Background()

// --- server + client ---

func newTestTier(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(ServerConfig{QoR: qorlog.NewMemoryStore(0)})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func newTestClient(ts *httptest.Server) *Client {
	return NewClient(ClientConfig{
		BaseURL: ts.URL,
		Timeout: 2 * time.Second,
		Warnf:   func(string, ...any) {},
	})
}

func TestQoRRoundTripOverHTTP(t *testing.T) {
	_, ts := newTestTier(t)
	c := newTestClient(ts)

	key := testKey("sample-1")
	rec := testRecord("riscv32i", 1234.5678)
	if _, ok := c.GetQoR(bg, key); ok {
		t.Fatal("empty tier served a record")
	}
	c.PutQoR(bg, key, rec)
	got, ok := c.GetQoR(bg, key)
	if !ok {
		t.Fatal("put record not served")
	}
	if got != rec {
		// Exact struct equality: float64 bits must round-trip untouched.
		t.Fatalf("record round-trip mutated: %+v vs %+v", got, rec)
	}
	if c.Degraded() {
		t.Fatal("healthy exchange degraded the client")
	}
}

func TestServerRejections(t *testing.T) {
	_, ts := newTestTier(t)
	hc := ts.Client()

	do := func(method, path, body string) int {
		t.Helper()
		req, _ := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	key := testKey("x").Hex()
	frame := string(qorlog.EncodeRecord(testKey("x"), testRecord("d", 1)))

	cases := []struct {
		name         string
		method, path string
		body         string
		want         int
	}{
		{"bad key chars", "GET", "/v1/qor/ZZZZ", "", http.StatusUnprocessableEntity},
		{"overlong key", "GET", "/v1/qor/" + strings.Repeat("a", 200), "", http.StatusUnprocessableEntity},
		{"traversal key", "GET", "/v1/qor/%2e%2e%2fetc", "", http.StatusUnprocessableEntity},
		{"qor miss", "GET", "/v1/qor/" + key, "", http.StatusNotFound},
		{"qor put not a frame", "PUT", "/v1/qor/" + key, "garbage", http.StatusBadRequest},
		{"qor put oversized", "PUT", "/v1/qor/" + key, strings.Repeat("x", 5000), http.StatusRequestEntityTooLarge},
		{"qor put key mismatch", "PUT", "/v1/qor/" + testKey("other").Hex(), frame, http.StatusUnprocessableEntity},
		{"qor put ok", "PUT", "/v1/qor/" + key, frame, http.StatusNoContent},
		{"wrong method", "DELETE", "/v1/qor/" + key, "", http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := do(tc.method, tc.path, tc.body); got != tc.want {
				t.Fatalf("%s %s = %d, want %d", tc.method, tc.path, got, tc.want)
			}
		})
	}

	// The server stays healthy and exposes metrics after every rejection.
	resp, err := hc.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp, err)
	}
	resp.Body.Close()
	resp, err = hc.Get(ts.URL + "/metrics")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %v %v", resp, err)
	}
	buf := new(bytes.Buffer)
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, m := range []string{
		"remotecache_qor_puts_total 1",
		"remotecache_input_rejected_total",
	} {
		if !strings.Contains(buf.String(), m) {
			t.Errorf("metrics missing %q", m)
		}
	}
}

// TestConflictingPutKeepsFirstRecord: a PUT for a key the tier holds, with
// a different record, answers 204 and stores nothing — a client cannot
// replace a result another replica computed.
func TestConflictingPutKeepsFirstRecord(t *testing.T) {
	_, ts := newTestTier(t)
	hc := ts.Client()
	key := testKey("held")
	put := func(rec qorlog.Record) {
		t.Helper()
		req, _ := http.NewRequest("PUT", ts.URL+"/v1/qor/"+key.Hex(),
			bytes.NewReader(qorlog.EncodeRecord(key, rec)))
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("PUT = %d, want 204", resp.StatusCode)
		}
	}
	conflicts := func() string {
		t.Helper()
		resp, err := hc.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		_, v, _ := strings.Cut(string(b), "\nremotecache_qor_put_conflicts_total ")
		n, _, _ := strings.Cut(v, "\n")
		return n
	}
	first := testRecord("d", 1)
	put(first)
	put(first)
	if n := conflicts(); n != "0" {
		t.Fatalf("conflicting PUTs = %q after an identical re-PUT, want 0", n)
	}
	put(testRecord("d", 2))
	if n := conflicts(); n != "1" {
		t.Fatalf("conflicting PUTs = %q after a different record, want 1", n)
	}

	if got, ok := newTestClient(ts).GetQoR(bg, key); !ok || got != first {
		t.Fatalf("tier serves %+v (ok=%v), want the first record %+v", got, ok, first)
	}
}

func TestClientDegradesOnDeadServer(t *testing.T) {
	_, ts := newTestTier(t)
	warnings := 0
	c := NewClient(ClientConfig{
		BaseURL: ts.URL,
		Timeout: time.Second,
		Warnf:   func(string, ...any) { warnings++ },
	})
	key := testKey("k")
	c.PutQoR(bg, key, testRecord("d", 1))
	if _, ok := c.GetQoR(bg, key); !ok {
		t.Fatal("warm-up exchange failed")
	}

	ts.Close() // the tier dies mid-run

	for i := 0; i < 5; i++ {
		if _, ok := c.GetQoR(bg, key); ok {
			t.Fatal("dead tier served a record")
		}
		c.PutQoR(bg, key, testRecord("d", float64(i)))
	}
	if !c.Degraded() {
		t.Fatal("client never degraded")
	}
	if warnings != 1 {
		t.Fatalf("degradation warned %d times, want exactly 1", warnings)
	}
}

func TestTierReadThroughWriteThrough(t *testing.T) {
	srv, ts := newTestTier(t)
	key := testKey("t")
	rec := testRecord("d", 7)

	// Replica A publishes through its tier: the record is on the server by
	// the time Put returns.
	aLocal := qorlog.NewMemoryStore(0)
	a := NewTier(bg, aLocal, newTestClient(ts))
	a.Put(key, rec)
	if srv.cfg.QoR.Len() != 1 {
		t.Fatalf("server holds %d records after Put, want 1", srv.cfg.QoR.Len())
	}
	if _, ok := aLocal.Get(key); !ok {
		t.Fatal("Put skipped the local store")
	}

	// Replica B's local store is cold; the tier reads through and backfills.
	bLocal := qorlog.NewMemoryStore(0)
	bClient := newTestClient(ts)
	b := NewTier(bg, bLocal, bClient)
	got, ok := b.Get(key)
	if !ok || got != rec {
		t.Fatalf("read-through = %+v %v", got, ok)
	}
	if _, ok := bLocal.Get(key); !ok {
		t.Fatal("remote hit was not written back to the local store")
	}
	if bClient.Stats().QoRHits != 1 {
		t.Fatalf("client stats = %+v", bClient.Stats())
	}

	// Dead tier: the Tier degrades to local-only silently.
	ts.Close()
	key2 := testKey("t2")
	b.Put(key2, rec)
	if got, ok := b.Get(key2); !ok || got != rec {
		t.Fatal("local tier lost a record after remote death")
	}
}

// TestTierPutAgainstDeadTierIsBounded: the remote write sits on the caller's
// goroutine, so what a dying tier can cost it is bounded — one request the
// first time, nothing once the breaker is open.
func TestTierPutAgainstDeadTierIsBounded(t *testing.T) {
	// A tier that accepts connections and never answers: the slowest way to
	// be dead, every attempt runs into the client timeout.
	hang := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { <-hang }))
	defer ts.Close()
	defer close(hang) // first, or Close waits on the parked handlers
	const timeout = 50 * time.Millisecond
	warnings := 0
	local := qorlog.NewMemoryStore(0)
	tier := NewTier(bg, local, NewClient(ClientConfig{
		BaseURL: ts.URL,
		Timeout: timeout,
		Warnf:   func(string, ...any) { warnings++ },
	}))

	start := time.Now()
	tier.Put(testKey("k0"), testRecord("d", 0))
	first := time.Since(start)
	if first < timeout {
		t.Fatalf("first Put returned in %v, before one client timeout (%v): the hung tier was never tried", first, timeout)
	}
	if bound := timeout + time.Second; first > bound {
		t.Fatalf("first Put took %v, want under %v (one attempt of %v)", first, bound, timeout)
	}
	start = time.Now()
	for i := 1; i < 5; i++ {
		tier.Put(testKey(fmt.Sprintf("k%d", i)), testRecord("d", float64(i)))
	}
	if rest := time.Since(start); rest > timeout {
		t.Fatalf("Puts behind an open breaker took %v, want no network wait", rest)
	}
	for i := 0; i < 5; i++ {
		if _, ok := local.Get(testKey(fmt.Sprintf("k%d", i))); !ok {
			t.Errorf("record k%d did not land in the local store", i)
		}
	}
	if warnings != 1 {
		t.Errorf("degradation warned %d times, want exactly 1", warnings)
	}
}

// TestTierGetAgainstHungTierWaitsOneTimeout: a lookup the tier never answers
// times out once and is not retried — the breaker opens on it — so the first
// Get costs one client Timeout and the next none.
func TestTierGetAgainstHungTierWaitsOneTimeout(t *testing.T) {
	hang := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { <-hang }))
	defer ts.Close()
	defer close(hang) // first, or Close waits on the parked handlers
	const timeout = 200 * time.Millisecond
	tier := NewTier(bg, qorlog.NewMemoryStore(0), NewClient(ClientConfig{
		BaseURL: ts.URL,
		Timeout: timeout,
		Warnf:   func(string, ...any) {},
	}))

	start := time.Now()
	if _, ok := tier.Get(testKey("k0")); ok {
		t.Fatal("a hung tier served a record")
	}
	if first := time.Since(start); first < timeout || first > timeout*3/2 {
		t.Errorf("first Get took %v, want one client timeout (%v, at most %v)", first, timeout, timeout*3/2)
	}
	start = time.Now()
	tier.Get(testKey("k1"))
	if next := time.Since(start); next > timeout/4 {
		t.Errorf("Get behind the open breaker took %v, want no network wait", next)
	}
}

// TestTierGetAgainstHungTierEndsWithItsContext: a lookup the tier never
// answers returns a miss when the Tier's context expires, well before the
// client Timeout; a Tier whose context is already done does not touch the
// tier at all.
func TestTierGetAgainstHungTierEndsWithItsContext(t *testing.T) {
	hang := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { <-hang }))
	defer ts.Close()
	defer close(hang) // first, or Close waits on the parked handlers
	c := NewClient(ClientConfig{BaseURL: ts.URL, Timeout: 5 * time.Second, Warnf: func(string, ...any) {}})

	done, cancel := context.WithCancel(bg)
	cancel()
	if _, ok := NewTier(done, qorlog.NewMemoryStore(0), c).Get(testKey("k0")); ok {
		t.Fatal("a hung tier served a record")
	}
	if c.Degraded() {
		t.Fatal("a lookup under a done context tripped the breaker")
	}

	const deadline = 100 * time.Millisecond
	ctx, cancel := context.WithTimeout(bg, deadline)
	defer cancel()
	start := time.Now()
	if _, ok := NewTier(ctx, qorlog.NewMemoryStore(0), c).Get(testKey("k1")); ok {
		t.Fatal("a hung tier served a record")
	}
	if took := time.Since(start); took < deadline || took > time.Second {
		t.Errorf("Get took %v, want about its context deadline (%v), far under the client Timeout", took, deadline)
	}
}
