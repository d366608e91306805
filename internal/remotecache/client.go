package remotecache

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/qorlog"
	"repro/internal/resilience"
)

// Client is a replica's view of the remote result tier. Its contract is the
// same one qorlog.Store established for disks: the tier is an optimization,
// never a dependency. Every method is total — a miss, a transport failure,
// an injected fault, or a server that vanished mid-run all produce "not
// found" / "not stored". A hard failure trips a circuit breaker into
// local-only mode with ONE warning, after which calls return immediately
// without touching the network; unlike the original sticky latch, the
// breaker goes half-open after a dwell and probes the tier, so a restarted
// server re-attaches automatically (logged once per recovery). Requests
// that classify as transient (resilience.IsRetryableNet) are retried a
// bounded number of times first; connection-refused — the signature of a
// dead tier — is not, so the breaker opens immediately when the server is
// gone.
//
// Safe for concurrent use; every method is nil-safe (a nil client is a
// permanently-missing tier).
type Client struct {
	base   string
	hc     *http.Client
	owner  string
	ttl    time.Duration
	poll   time.Duration
	inject *resilience.Injector
	warnf  func(format string, args ...any)

	breaker  *resilience.Breaker
	warnOnce sync.Once

	qorHits, qorMisses, qorPuts    atomic.Int64
	blobHits, blobMisses, blobPuts atomic.Int64
	granted, waited, dropped       atomic.Int64
}

// ClientConfig wires a Client.
type ClientConfig struct {
	// BaseURL locates the tier, e.g. "http://cache-host:9090". Required.
	BaseURL string
	// Owner identifies this replica in lease claims (default "chatls").
	Owner string
	// LeaseTTL is requested on every claim (default DefaultLeaseTTL; the
	// server clamps to its own bound).
	LeaseTTL time.Duration
	// PollInterval paces result polling while a sibling holds the lease
	// (default 50ms).
	PollInterval time.Duration
	// Timeout bounds each HTTP request (default 5s).
	Timeout time.Duration
	// Inject, when non-nil, injects faults at the client boundary under the
	// resilience.CompRemoteCache component (fault-injection suite only).
	Inject *resilience.Injector
	// Warnf sinks the single degradation warning and the per-recovery
	// re-attach notice (default log.Printf).
	Warnf func(format string, args ...any)
	// Breaker tunes the tier circuit breaker: one hard failure opens it (a
	// dead tier should not eat further requests), and after OpenFor
	// (default DefaultBreakerOpenFor) one probe tests the tier again.
	Breaker resilience.BreakerConfig
}

// DefaultBreakerOpenFor is how long the client stays local-only after the
// tier fails before probing it again.
const DefaultBreakerOpenFor = 2 * time.Second

// requestAttempts bounds retries of one request while the failure stays
// transient (resilience.IsRetryableNet).
const requestAttempts = 3

// NewClient builds a client for the tier at cfg.BaseURL.
func NewClient(cfg ClientConfig) *Client {
	if cfg.Owner == "" {
		cfg.Owner = "chatls"
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 50 * time.Millisecond
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Second
	}
	if cfg.Warnf == nil {
		cfg.Warnf = log.Printf
	}
	if cfg.Breaker.OpenFor <= 0 {
		cfg.Breaker.OpenFor = DefaultBreakerOpenFor
	}
	c := &Client{
		base:   cfg.BaseURL,
		hc:     &http.Client{Timeout: cfg.Timeout},
		owner:  cfg.Owner,
		ttl:    cfg.LeaseTTL,
		poll:   cfg.PollInterval,
		inject: cfg.Inject,
		warnf:  cfg.Warnf,
	}
	cfg.Breaker.OnClose = func() {
		c.warnf("remotecache: tier reachable again, re-attaching " +
			"(fleet-wide dedup and sharing restored)")
	}
	c.breaker = resilience.NewBreaker(cfg.Breaker)
	return c
}

// Degraded reports whether the tier is currently abandoned (breaker open).
// Unlike the original sticky latch this clears again once a half-open
// probe reaches a recovered server.
func (c *Client) Degraded() bool {
	return c != nil && c.breaker.State() == resilience.BreakerOpen
}

// BreakerState exposes the tier breaker position for healthz/metrics.
func (c *Client) BreakerState() resilience.BreakerState {
	if c == nil {
		return resilience.BreakerClosed
	}
	return c.breaker.State()
}

// allow asks the breaker for admission; an open breaker makes every call
// an immediate miss.
func (c *Client) allow() bool { return c.breaker.Allow() }

// ok reports a reachable tier to the breaker (any HTTP exchange that
// completed, hit or miss, proves the tier is alive).
func (c *Client) ok() { c.breaker.Success() }

// fail reports a hard transport failure: the breaker trips and the first
// open in the process lifetime logs the single degradation warning.
func (c *Client) fail(err error) {
	c.breaker.Failure()
	if c.breaker.State() == resilience.BreakerOpen {
		c.warnOnce.Do(func() {
			c.warnf("remotecache: tier unreachable, degrading to local-only mode "+
				"(results stay correct; fleet-wide dedup and sharing are off): %v", err)
		})
	}
}

// do runs one request with bounded retry on transient network failures.
// mkReq rebuilds the request each attempt (bodies are not rewindable).
// A non-nil error means the tier is unusable and the caller must degrade.
func (c *Client) do(ctx context.Context, mkReq func() (*http.Request, error)) (*http.Response, error) {
	if err := c.inject.Fire(ctx, resilience.CompRemoteCache); err != nil {
		return nil, err
	}
	var resp *http.Response
	_, err := resilience.RetryBounded(requestAttempts, resilience.IsRetryableNet, func() error {
		req, err := mkReq()
		if err != nil {
			return err
		}
		resp, err = c.hc.Do(req.WithContext(ctx)) //nolint:bodyclose — callers close
		return err
	})
	return resp, err
}

// drain releases a response so the connection is reused.
func drain(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
}

// GetQoR fetches the record for key. Misses and failures are both "no".
func (c *Client) GetQoR(key qorlog.Key) (qorlog.Record, bool) {
	if c == nil || !c.allow() {
		return qorlog.Record{}, false
	}
	url := c.base + "/v1/qor/" + key.Hex()
	resp, err := c.do(context.Background(), func() (*http.Request, error) {
		return http.NewRequest(http.MethodGet, url, nil)
	})
	if err != nil {
		c.fail(err)
		return qorlog.Record{}, false
	}
	c.ok()
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		c.qorMisses.Add(1)
		return qorlog.Record{}, false
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if err != nil {
		c.qorMisses.Add(1)
		return qorlog.Record{}, false
	}
	k, rec, ok := qorlog.DecodeRecord(body)
	if !ok || k != key {
		// A tier serving frames that do not decode — or decode to a
		// different content address — is not trusted for this key.
		c.qorMisses.Add(1)
		return qorlog.Record{}, false
	}
	c.qorHits.Add(1)
	return rec, true
}

// PutQoR publishes a record. Failures drop the record (the local tier still
// has it).
func (c *Client) PutQoR(key qorlog.Key, rec qorlog.Record) {
	if c == nil || !c.allow() {
		return
	}
	frame := qorlog.EncodeRecord(key, rec)
	url := c.base + "/v1/qor/" + key.Hex()
	resp, err := c.do(context.Background(), func() (*http.Request, error) {
		return http.NewRequest(http.MethodPut, url, bytes.NewReader(frame))
	})
	if err != nil {
		c.fail(err)
		c.dropped.Add(1)
		return
	}
	c.ok()
	drain(resp)
	if resp.StatusCode != http.StatusNoContent {
		c.dropped.Add(1)
		return
	}
	c.qorPuts.Add(1)
}

// GetBlob fetches a checkpoint blob. The key is the raw content hash
// (synth's checkpointKey bytes); it travels hex-encoded. Implements
// synth.BlobCache.
func (c *Client) GetBlob(key string) ([]byte, bool) {
	if c == nil || !c.allow() {
		return nil, false
	}
	url := c.base + "/v1/checkpoint/" + hex.EncodeToString([]byte(key))
	resp, err := c.do(context.Background(), func() (*http.Request, error) {
		return http.NewRequest(http.MethodGet, url, nil)
	})
	if err != nil {
		c.fail(err)
		return nil, false
	}
	c.ok()
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		c.blobMisses.Add(1)
		return nil, false
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		c.blobMisses.Add(1)
		return nil, false
	}
	c.blobHits.Add(1)
	return body, true
}

// PutBlob publishes a checkpoint blob. Implements synth.BlobCache.
func (c *Client) PutBlob(key string, blob []byte) {
	if c == nil || !c.allow() {
		return
	}
	url := c.base + "/v1/checkpoint/" + hex.EncodeToString([]byte(key))
	resp, err := c.do(context.Background(), func() (*http.Request, error) {
		return http.NewRequest(http.MethodPut, url, bytes.NewReader(blob))
	})
	if err != nil {
		c.fail(err)
		c.dropped.Add(1)
		return
	}
	c.ok()
	drain(resp)
	if resp.StatusCode != http.StatusNoContent {
		c.dropped.Add(1)
		return
	}
	c.blobPuts.Add(1)
}

// Acquire coordinates one unit of content-addressed work fleet-wide:
//
//   - the result already exists somewhere -> (record, true, noop): use it;
//   - this replica wins the lease -> (zero, false, release): compute,
//     publish with PutQoR, then call release;
//   - a sibling holds the lease -> poll for its result until the lease
//     expires, then re-claim.
//
// Any failure — tier down, context cancelled, protocol confusion — returns
// (zero, false, noop): the caller computes locally, which is always
// correct. release is never nil and is safe to call exactly once after the
// result is published (deferred by the eval path).
func (c *Client) Acquire(ctx context.Context, key qorlog.Key) (qorlog.Record, bool, func()) {
	noop := func() {}
	if c == nil || !c.allow() {
		return qorlog.Record{}, false, noop
	}
	waited := false
	for {
		resp, err := c.claim(ctx, key)
		if err != nil {
			if ctx.Err() == nil {
				c.fail(err)
			} else {
				// Our own cancellation, not the tier's fault — return the
				// admission slot without a verdict so a half-open probe is
				// not burned on it.
				c.breaker.Drop()
			}
			return qorlog.Record{}, false, noop
		}
		c.ok()
		switch resp.Status {
		case StatusDone:
			if rec, ok := c.GetQoR(key); ok {
				return rec, true, noop
			}
			// The server said done but the record did not materialize
			// (evicted between answers, or the tier degraded mid-exchange).
			// Computing locally is always safe.
			return qorlog.Record{}, false, noop

		case StatusGranted:
			c.granted.Add(1)
			id := resp.Lease
			return qorlog.Record{}, false, func() { c.complete(ctx, id) }

		case StatusHeld:
			// Poll by re-claiming: the claim answer distinguishes every
			// outcome we care about — the holder published (done), is still
			// working (held), or vanished or finished without a result
			// (granted: the lease expired or was completed empty, and now
			// it's ours). Polling GetQoR instead would stall a full TTL
			// when the holder's script fails and nothing is ever published.
			if !waited {
				c.waited.Add(1)
				waited = true
			}
			select {
			case <-ctx.Done():
				return qorlog.Record{}, false, noop
			case <-time.After(c.poll):
			}

		default:
			return qorlog.Record{}, false, noop
		}
	}
}

// claim POSTs one lease claim.
func (c *Client) claim(ctx context.Context, key qorlog.Key) (*leaseClaimResponse, error) {
	body, _ := json.Marshal(leaseClaimRequest{
		Key:   key.Hex(),
		Owner: c.owner,
		TTLms: c.ttl.Milliseconds(),
	})
	resp, err := c.do(ctx, func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodPost, c.base+"/v1/leases", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		return req, nil
	})
	if err != nil {
		return nil, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("claim: unexpected status %d", resp.StatusCode)
	}
	var out leaseClaimResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&out); err != nil {
		return nil, fmt.Errorf("claim: bad response: %v", err)
	}
	return &out, nil
}

// complete releases a lease, best-effort: the result is already published,
// and an unreleased lease merely expires.
func (c *Client) complete(ctx context.Context, id string) {
	if !c.allow() {
		return
	}
	resp, err := c.do(ctx, func() (*http.Request, error) {
		return http.NewRequest(http.MethodPost, c.base+"/v1/leases/"+id+"/complete", nil)
	})
	if err != nil {
		if ctx.Err() == nil {
			c.fail(err)
		} else {
			c.breaker.Drop()
		}
		return
	}
	c.ok()
	drain(resp)
}

// ClientStats are the client's lifetime counters, exposed by replicas as
// remotecache_client_* metrics.
type ClientStats struct {
	QoRHits, QoRMisses, QoRPuts    int64
	BlobHits, BlobMisses, BlobPuts int64
	LeasesGranted, LeaseWaits      int64
	Dropped                        int64
	Degraded                       bool
}

// Stats returns the current counters. Nil-safe.
func (c *Client) Stats() ClientStats {
	if c == nil {
		return ClientStats{}
	}
	return ClientStats{
		QoRHits: c.qorHits.Load(), QoRMisses: c.qorMisses.Load(), QoRPuts: c.qorPuts.Load(),
		BlobHits: c.blobHits.Load(), BlobMisses: c.blobMisses.Load(), BlobPuts: c.blobPuts.Load(),
		LeasesGranted: c.granted.Load(), LeaseWaits: c.waited.Load(),
		Dropped:  c.dropped.Load(),
		Degraded: c.Degraded(),
	}
}
