package remotecache

import "repro/internal/qorlog"

// Tier composes the local QoR store and the remote tier into the two-level
// result store replicas actually use: read-through (local first, then
// remote, with remote hits written back locally) and write-through (local
// first — it is the correctness tier — then the remote tier, on the caller's
// goroutine). The remote write is Client.PutQoR, which is total: a dying tier
// costs one request before the breaker opens, and nothing after.
//
// With the remote side degraded or nil, a Tier behaves exactly like its
// local store.
type Tier struct {
	local  *qorlog.Store
	remote *Client
}

// NewTier wires a two-level store. Either side may be nil: both are
// nil-safe, so the Tier is then a thin wrapper over the other.
func NewTier(local *qorlog.Store, remote *Client) *Tier {
	return &Tier{local: local, remote: remote}
}

// Get is the read-through lookup: local store first, then the remote tier.
// A remote hit is written back locally so the next lookup stays local.
func (t *Tier) Get(key qorlog.Key) (qorlog.Record, bool) {
	if rec, ok := t.local.Get(key); ok {
		return rec, true
	}
	if rec, ok := t.remote.GetQoR(key); ok {
		t.local.Put(key, rec)
		return rec, true
	}
	return qorlog.Record{}, false
}

// Put stores locally, then publishes to the remote tier. The record is on
// the server (or dropped, with the tier degraded) when Put returns, so a
// sibling that asks after it is served.
func (t *Tier) Put(key qorlog.Key, rec qorlog.Record) {
	t.local.Put(key, rec)
	t.remote.PutQoR(key, rec)
}
