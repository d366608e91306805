package remotecache

import (
	"bytes"
	"context"
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
// whose connection dropped mid-flight (resilience.IsRetryableNet) are
// retried a bounded number of times first; a refused connection — the
// signature of a dead tier — or a timeout is not, so the breaker opens on
// the first one and a hung tier costs one wait, not one per attempt. That
// wait is the caller's context deadline or Timeout, whichever comes first: a
// request never waits on the tier past its own deadline. A call the caller's
// deadline cut short opens the breaker too: were only Timeout to trip it, a
// hung tier facing requests whose deadlines are shorter than Timeout would
// never trip, and each of them would spend its whole deadline there.
//
// Safe for concurrent use; every method is nil-safe (a nil client is a
// permanently-missing tier).
type Client struct {
	base   string
	hc     *http.Client
	inject *resilience.Injector
	warnf  func(format string, args ...any)

	breaker  *resilience.Breaker
	warnOnce sync.Once

	qorHits, qorMisses, qorPuts, dropped atomic.Int64
}

// ClientConfig wires a Client.
type ClientConfig struct {
	// BaseURL locates the tier, e.g. "http://cache-host:9090". Required.
	BaseURL string
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

// requestAttempts bounds retries of one request while its connection keeps
// dropping mid-flight (resilience.IsRetryableNet).
const requestAttempts = 3

// NewClient builds a client for the tier at cfg.BaseURL.
func NewClient(cfg ClientConfig) *Client {
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
		inject: cfg.Inject,
		warnf:  cfg.Warnf,
	}
	cfg.Breaker.OnClose = func() {
		c.warnf("remotecache: tier reachable again, re-attaching " +
			"(fleet-wide result sharing restored)")
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
				"(results stay correct; fleet-wide result sharing is off): %v", err)
		})
	}
}

// do runs one request under ctx with bounded retry on transient network
// failures. mkReq rebuilds the request each attempt (bodies are not
// rewindable). A non-nil error means the tier is unusable and the caller
// must degrade.
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
		resp, err = c.hc.Do(req) //nolint:bodyclose — callers close
		return err
	})
	return resp, err
}

// drain releases a response so the connection is reused.
func drain(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
}

// GetQoR fetches the record for key, waiting no longer than ctx allows.
// Misses and failures are both "no"; a ctx already done is a miss that
// leaves the tier and its breaker alone.
func (c *Client) GetQoR(ctx context.Context, key qorlog.Key) (qorlog.Record, bool) {
	if c == nil || ctx.Err() != nil || !c.allow() {
		return qorlog.Record{}, false
	}
	url := c.base + "/v1/qor/" + key.Hex()
	resp, err := c.do(ctx, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
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

// PutQoR publishes a record, waiting no longer than ctx allows. Failures
// drop the record (the local tier still has it).
func (c *Client) PutQoR(ctx context.Context, key qorlog.Key, rec qorlog.Record) {
	if c == nil || ctx.Err() != nil || !c.allow() {
		return
	}
	frame := qorlog.EncodeRecord(key, rec)
	url := c.base + "/v1/qor/" + key.Hex()
	resp, err := c.do(ctx, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodPut, url, bytes.NewReader(frame))
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

// ClientStats are the client's lifetime counters, exposed by replicas as
// remotecache_client_* metrics.
type ClientStats struct {
	QoRHits, QoRMisses, QoRPuts int64
	Dropped                     int64
	Degraded                    bool
}

// Stats returns the current counters. Nil-safe.
func (c *Client) Stats() ClientStats {
	if c == nil {
		return ClientStats{}
	}
	return ClientStats{
		QoRHits: c.qorHits.Load(), QoRMisses: c.qorMisses.Load(), QoRPuts: c.qorPuts.Load(),
		Dropped:  c.dropped.Load(),
		Degraded: c.Degraded(),
	}
}
