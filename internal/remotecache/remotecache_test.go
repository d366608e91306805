package remotecache

import (
	"bytes"
	"context"
	"fmt"
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

// --- lease table ---

func TestLeaseTableClaimHeldCompleteExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	lt := newLeaseTable(clock)

	st, id, ttl := lt.Claim("aa", "r1", time.Minute)
	if st != StatusGranted || id == "" || ttl != time.Minute {
		t.Fatalf("first claim = %v %q %v", st, id, ttl)
	}
	if st2, _, rem := lt.Claim("aa", "r2", time.Minute); st2 != StatusHeld || rem <= 0 {
		t.Fatalf("second claim = %v rem=%v, want held", st2, rem)
	}
	if !lt.Renew(id, time.Minute) {
		t.Fatal("renew of live lease failed")
	}
	if !lt.Complete(id) {
		t.Fatal("complete of live lease failed")
	}
	if lt.Complete(id) {
		t.Fatal("double complete reported true")
	}
	// Key is free again.
	if st3, _, _ := lt.Claim("aa", "r2", time.Minute); st3 != StatusGranted {
		t.Fatalf("claim after complete = %v, want granted", st3)
	}

	// Expiry: advance past the TTL; a new claimant takes over.
	now = now.Add(2 * time.Minute)
	if st4, id4, _ := lt.Claim("aa", "r3", time.Minute); st4 != StatusGranted || id4 == "" {
		t.Fatalf("claim after expiry = %v, want granted", st4)
	}
	if lt.stats().Expired != 1 {
		t.Fatalf("expired = %d, want 1", lt.stats().Expired)
	}

	// Sweep drops expired leases wholesale.
	lt.Claim("bb", "r1", time.Minute)
	lt.Claim("cc", "r1", time.Minute)
	now = now.Add(3 * time.Minute)
	if n := lt.Sweep(); n != 3 { // aa's r3 lease + bb + cc
		t.Fatalf("sweep dropped %d, want 3", n)
	}
	if lt.Active() != 0 {
		t.Fatalf("active after sweep = %d", lt.Active())
	}
}

func TestLeaseRenewExpired(t *testing.T) {
	now := time.Unix(1000, 0)
	lt := newLeaseTable(func() time.Time { return now })
	_, id, _ := lt.Claim("aa", "r1", time.Minute)
	now = now.Add(2 * time.Minute)
	if lt.Renew(id, time.Minute) {
		t.Fatal("renewing an expired lease succeeded")
	}
}

// --- server + client ---

func newTestTier(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(ServerConfig{
		QoR:      qorlog.NewMemoryStore(0),
		LeaseTTL: time.Minute,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

func newTestClient(ts *httptest.Server, owner string) *Client {
	return NewClient(ClientConfig{
		BaseURL:      ts.URL,
		Owner:        owner,
		LeaseTTL:     500 * time.Millisecond,
		PollInterval: 5 * time.Millisecond,
		Timeout:      2 * time.Second,
		Warnf:        func(string, ...any) {},
	})
}

func TestQoRRoundTripOverHTTP(t *testing.T) {
	_, ts := newTestTier(t)
	c := newTestClient(ts, "r1")

	key := testKey("sample-1")
	rec := testRecord("riscv32i", 1234.5678)
	if _, ok := c.GetQoR(key); ok {
		t.Fatal("empty tier served a record")
	}
	c.PutQoR(key, rec)
	got, ok := c.GetQoR(key)
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
		{"lease not json", "POST", "/v1/leases", "nope", http.StatusBadRequest},
		{"lease unknown field", "POST", "/v1/leases", `{"key":"aa","owner":"r","ttl_ms":1,"x":2}`, http.StatusBadRequest},
		{"lease bad key", "POST", "/v1/leases", `{"key":"ZZ","owner":"r","ttl_ms":1}`, http.StatusUnprocessableEntity},
		{"lease no owner", "POST", "/v1/leases", `{"key":"aa","ttl_ms":1}`, http.StatusUnprocessableEntity},
		{"renew unknown lease", "POST", "/v1/leases/l999/renew", `{"ttl_ms":1}`, http.StatusGone},
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
		"remotecache_leases_active",
	} {
		if !strings.Contains(buf.String(), m) {
			t.Errorf("metrics missing %q", m)
		}
	}
}

func TestAcquireLifecycle(t *testing.T) {
	_, ts := newTestTier(t)
	c1 := newTestClient(ts, "r1")
	c2 := newTestClient(ts, "r2")
	key := testKey("work-1")
	rec := testRecord("d", 99)

	// r1 wins the lease.
	got, ok, release := c1.Acquire(context.Background(), key)
	if ok {
		t.Fatalf("empty tier served a record: %+v", got)
	}

	// r2 contends while r1 works: it must block, then see r1's result.
	type outcome struct {
		rec qorlog.Record
		ok  bool
	}
	r2done := make(chan outcome, 1)
	go func() {
		rec2, ok2, rel2 := c2.Acquire(context.Background(), key)
		rel2()
		r2done <- outcome{rec2, ok2}
	}()

	time.Sleep(30 * time.Millisecond) // let r2 reach the held/poll state
	select {
	case o := <-r2done:
		t.Fatalf("r2 returned before r1 published: %+v", o)
	default:
	}

	c1.PutQoR(key, rec)
	release()

	o := <-r2done
	if !o.ok || o.rec != rec {
		t.Fatalf("r2 outcome = %+v, want r1's record", o)
	}
	if c2.Stats().LeaseWaits == 0 {
		t.Fatal("r2 never waited on the lease")
	}

	// A third acquire is answered done immediately.
	rec3, ok3, rel3 := c1.Acquire(context.Background(), key)
	rel3()
	if !ok3 || rec3 != rec {
		t.Fatalf("post-publish acquire = %+v %v", rec3, ok3)
	}
}

func TestAcquireTakesOverExpiredLease(t *testing.T) {
	srv := NewServer(ServerConfig{
		QoR:      qorlog.NewMemoryStore(0),
		LeaseTTL: 40 * time.Millisecond, // crashed holders expire fast
	})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	crashed := NewClient(ClientConfig{
		BaseURL: ts.URL, Owner: "crashed", LeaseTTL: 40 * time.Millisecond,
		PollInterval: 5 * time.Millisecond, Warnf: func(string, ...any) {},
	})
	key := testKey("abandoned")
	if _, ok, _ := crashed.Acquire(context.Background(), key); ok {
		t.Fatal("empty tier served a record")
	}
	// The "crashed" replica never publishes or releases. A sibling must get
	// the lease once it expires, bounded by ~TTL, not forever.
	sib := NewClient(ClientConfig{
		BaseURL: ts.URL, Owner: "sib", LeaseTTL: 40 * time.Millisecond,
		PollInterval: 5 * time.Millisecond, Warnf: func(string, ...any) {},
	})
	start := time.Now()
	_, ok, release := sib.Acquire(context.Background(), key)
	release()
	if ok {
		t.Fatal("sibling got a record nobody published")
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("takeover waited %v, far beyond the lease TTL", waited)
	}
	if sib.Stats().LeasesGranted != 1 {
		t.Fatalf("sibling stats = %+v, want one granted lease", sib.Stats())
	}
}

func TestClientDegradesOnDeadServer(t *testing.T) {
	_, ts := newTestTier(t)
	warnings := 0
	c := NewClient(ClientConfig{
		BaseURL:      ts.URL,
		LeaseTTL:     100 * time.Millisecond,
		PollInterval: 5 * time.Millisecond,
		Timeout:      time.Second,
		Warnf:        func(string, ...any) { warnings++ },
	})
	key := testKey("k")
	c.PutQoR(key, testRecord("d", 1))
	if _, ok := c.GetQoR(key); !ok {
		t.Fatal("warm-up exchange failed")
	}

	ts.Close() // the tier dies mid-run

	for i := 0; i < 5; i++ {
		if _, ok := c.GetQoR(key); ok {
			t.Fatal("dead tier served a record")
		}
		c.PutQoR(key, testRecord("d", float64(i)))
		if rec, ok, rel := c.Acquire(context.Background(), key); ok {
			rel()
			t.Fatalf("dead tier granted a result: %+v", rec)
		}
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
	a := NewTier(aLocal, newTestClient(ts, "a"))
	a.Put(key, rec)
	if srv.cfg.QoR.Len() != 1 {
		t.Fatalf("server holds %d records after Put, want 1", srv.cfg.QoR.Len())
	}
	if _, ok := aLocal.Get(key); !ok {
		t.Fatal("Put skipped the local store")
	}

	// Replica B's local store is cold; the tier reads through and backfills.
	bLocal := qorlog.NewMemoryStore(0)
	bClient := newTestClient(ts, "b")
	b := NewTier(bLocal, bClient)
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

// TestTierReleaseFollowsPublish is the dedup guarantee the lease protocol
// rests on: the holder's Put is on the server before its release completes
// the lease, so a sibling claiming the instant the lease is gone is told
// the result exists — it is never granted the same work again.
func TestTierReleaseFollowsPublish(t *testing.T) {
	_, ts := newTestTier(t)
	holder := NewTier(qorlog.NewMemoryStore(0), newTestClient(ts, "holder"))
	sibling := newTestClient(ts, "sibling")
	for i := 0; i < 50; i++ {
		key := testKey(fmt.Sprintf("work-%d", i))
		_, done, release := holder.Acquire(context.Background(), key)
		if done {
			t.Fatalf("key %d: empty tier served a record", i)
		}
		if resp, err := sibling.claim(context.Background(), key); err != nil || resp.Status != StatusHeld {
			t.Fatalf("key %d: claim against a live lease = %+v, %v; want held", i, resp, err)
		}
		holder.Put(key, testRecord("d", float64(i)))
		release()
		resp, err := sibling.claim(context.Background(), key)
		if err != nil || resp.Status != StatusDone {
			t.Fatalf("key %d: claim after release = %+v, %v; want done", i, resp, err)
		}
	}
	if n := sibling.Stats().LeasesGranted; n != 0 {
		t.Fatalf("sibling was granted %d leases for published work", n)
	}
}

// TestTierPutAgainstDeadTierIsBounded: the remote write sits on the caller's
// goroutine, so what a dying tier can cost it is bounded — one request's
// retries the first time, nothing once the breaker is open.
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
	tier := NewTier(local, NewClient(ClientConfig{
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
	if bound := requestAttempts*timeout + time.Second; first > bound {
		t.Fatalf("first Put took %v, want under %v (%d attempts of %v)", first, bound, requestAttempts, timeout)
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

func TestServerSweepsExpiredLeases(t *testing.T) {
	now := time.Unix(0, 0)
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	clock := func() time.Time { <-mu; defer func() { mu <- struct{}{} }(); return now }
	srv := NewServer(ServerConfig{
		QoR:      qorlog.NewMemoryStore(0),
		LeaseTTL: 20 * time.Millisecond,
		Now:      clock,
	})
	defer srv.Close()
	srv.leases.Claim(fmt.Sprintf("%064x", 1), "r", 20*time.Millisecond)
	if srv.leases.Active() != 1 {
		t.Fatal("claim did not register")
	}
	<-mu
	now = now.Add(time.Minute)
	mu <- struct{}{}
	deadline := time.Now().Add(2 * time.Second)
	for srv.leases.Active() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("background sweep never expired the lease")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
