// Package batch keeps the names the benchmark module (bench/) still compiles
// against from the continuous-batching admission queue that used to sit in
// front of the embedding models. The queue is gone: serving-path embeddings
// run inline on the caller's goroutine (see synthrag.Database), because every
// flush it made waited its full window for a batch of about one.
package batch

import "time"

// DefaultWindow is kept for the benchmark module, which passes it to
// synthrag.Database.EnableBatching; nothing waits for it.
const DefaultWindow = 2 * time.Millisecond

// DefaultMaxBatch is kept for the benchmark module, which passes it to
// synthrag.Database.EnableBatching; nothing is batched.
const DefaultMaxBatch = 16

// Stats is kept for the benchmark module, which differences
// synthrag.Database.BatchStats around a refinement to count manual searches.
type Stats struct {
	Items int64 // serving-path embeddings computed (text plus GNN)
}
