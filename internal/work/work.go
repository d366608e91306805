// Package work counts what a unit of work did in the stages it reached. The
// counts ride the context every stage already takes, so whoever roots the
// work — a server for its requests, a test for its runs — reads what that
// work did and nothing else the process runs.
package work

import (
	"context"
	"sync/atomic"

	"repro/internal/metrics"
)

// Kind is one thing a Counts counts.
type Kind uint8

const (
	FullAnalyses       Kind = iota // full static timing analyses, topology-change fallbacks included
	IncrementalUpdates             // incremental timing updates
	Elaborations                   // designs elaborated from parsed sources
	Parses                         // Verilog source files parsed
	MentorHits                     // CircuitMentor analyses read off a design's snapshot
	MentorMisses                   // CircuitMentor analyses computed
	SnapshotReads                  // the misses computed on the post-link snapshot (no parse, no elaboration)
	kinds
)

// Counts is one scope's tally, safe for concurrent use. Through a nil
// *Counts, Add and Dirty count nothing.
type Counts struct {
	n          [kinds]atomic.Int64
	DirtyNodes *metrics.Histogram // if set, observes each incremental update's dirty nodes
}

// Add counts one k.
func (c *Counts) Add(k Kind) {
	if c != nil {
		c.n[k].Add(1)
	}
}

// Get returns how many k were counted.
func (c *Counts) Get(k Kind) int64 { return c.n[k].Load() }

// Dirty observes the dirty-node count of one incremental update.
func (c *Counts) Dirty(n int) {
	if c != nil && c.DirtyNodes != nil {
		c.DirtyNodes.Observe(float64(n))
	}
}

type key struct{}

// With returns ctx carrying c: every stage run under it counts into c.
func With(ctx context.Context, c *Counts) context.Context { return context.WithValue(ctx, key{}, c) }

// From returns the Counts ctx carries, or nil when it carries none.
func From(ctx context.Context) *Counts {
	c, _ := ctx.Value(key{}).(*Counts)
	return c
}
