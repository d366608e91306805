package chatls

import (
	"context"

	"repro/internal/designs"
	"repro/internal/liberty"
	"repro/internal/qorlog"
)

// ResultStore is what the evaluation path needs from a result cache: logged
// QoR records addressed by content key. *qorlog.Store implements it (the
// local, durable tier); remotecache.Tier implements it over a local store
// plus the fleet-shared remote tier. Implementations must be safe for
// concurrent use and total — a Get that cannot be answered is a miss, a Put
// that cannot be stored is dropped, never an error into the synthesis path.
type ResultStore interface {
	Get(key qorlog.Key) (qorlog.Record, bool)
	Put(key qorlog.Key, rec qorlog.Record)
}

// LeasedResultStore extends ResultStore with fleet-wide work coordination:
// before computing key's result, a caller Acquires it. The three outcomes:
//
//   - (rec, true, release): someone already computed it — use rec, release
//     is a no-op;
//   - (zero, false, release): this caller holds the lease — compute,
//     Put the result, then call release;
//   - on any coordination failure the implementation returns (zero, false,
//     no-op): computing locally is always correct, leases only save work.
//
// release is never nil and must be called exactly once, after the result
// (if any) is published.
type LeasedResultStore interface {
	ResultStore
	Acquire(ctx context.Context, key qorlog.Key) (qorlog.Record, bool, func())
}

// ResultKey derives the durable QoR-log key of one synthesis outcome. A
// simulated synthesis run is a pure function of the library delay models,
// the RTL sources, and the script text (clock period, wireload model, and
// parameter overrides all live in the script), so those three inputs —
// library by content fingerprint, design by (file name, source), script
// verbatim — address the result. Any change to any of them changes the key,
// which is how skip-if-unchanged sweeps and warm restarts stay sound.
//
// The stored value is the QoR itself: qorlog.Record and synth.QoR carry
// identical fields (qorlog is a leaf package and must not import synth), so
// the struct conversions qorlog.Record(q) / synth.QoR(rec) cross floats
// unmodified — a logged record round-trips bit-identically — and stop
// compiling if the two structs ever drift.
func ResultKey(lib *liberty.Library, d *designs.Design, script string) qorlog.Key {
	return resultKey(lib.Fingerprint(), d, script)
}

// resultKey is ResultKey over libFP, the library's Fingerprint, which an
// evaluation computes once for all its samples: hashing the library costs
// about as much as hashing the largest design's sources.
func resultKey(libFP string, d *designs.Design, script string) qorlog.Key {
	return qorlog.KeyOf(libFP, d.FileName, d.Source, script)
}

// ShareRepeats returns o for one Pass@k evaluation of k samples in which a
// repeated script is synthesized once. When o has no result store and k > 1,
// the evaluation gets a fresh in-memory one of its own, returned too so the
// caller can read how many samples it served (Stats().Hits); a repeat's QoR
// is then the earlier sample's, bit for bit, because a run depends only on
// (library, sources, script). A failed run is never shared: the store holds
// only QoR, so a repeat of a failing script runs and fails again. With a
// store already set (a QoR log or the remote tier serves the repeat itself)
// or k = 1 (nothing can repeat, and a key costs more than it could save) o
// is returned as it is, with a nil store.
func (o EvalOptions) ShareRepeats(k int) (EvalOptions, *qorlog.Store) {
	if o.Results != nil || k <= 1 {
		return o, nil
	}
	store := qorlog.NewMemoryStore(k)
	o.Results = store
	return o, store
}
