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
	return qorlog.KeyOf(
		lib.Fingerprint(),
		d.FileName,
		d.Source,
		script,
	)
}
