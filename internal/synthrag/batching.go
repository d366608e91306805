package synthrag

import (
	"context"
	"time"

	"repro/internal/batch"
	"repro/internal/circuitmentor"
	"repro/internal/gnn"
)

// batchers is the optional continuous-batching layer over the two embedding
// models. When enabled, concurrent serving-path embedding requests that
// arrive within the admission window are coalesced: GNN requests fuse into
// one disjoint-union forward pass (stacked tensor.MatMul calls), text
// requests share one queue handoff. Results are byte-identical to the
// serial path — see gnn.EmbedBatch for the argument.
type batchers struct {
	global *batch.Batcher[*gnn.Graph, []float64]
	text   *batch.Batcher[string, []float64]
}

// EnableBatching installs the embedding admission queue: serving-path calls
// to EmbedDesignContext and SearchManualContext coalesce with concurrent
// callers for up to window (batch.DefaultWindow if <= 0), flushing early at
// maxBatch requests (batch.DefaultMaxBatch if <= 0). Call once after Build,
// before serving; it is not safe to race with in-flight retrievals. Build
// itself never batches — its parallelism is already structured.
func (db *Database) EnableBatching(window time.Duration, maxBatch int) {
	if window <= 0 {
		window = batch.DefaultWindow
	}
	if maxBatch <= 0 {
		maxBatch = batch.DefaultMaxBatch
	}
	db.batch = &batchers{
		global: batch.New(window, maxBatch, func(gs []*gnn.Graph) ([][]float64, error) {
			return db.Mentor.Model.EmbedGlobalBatch(gs), nil
		}),
		text: batch.New(window, maxBatch, func(texts []string) ([][]float64, error) {
			return db.Embedder.EmbedBatch(texts), nil
		}),
	}
}

// SetBatchObserver registers fn to be called at every batcher flush (both
// the GNN and the text queue) with the flushed batch size and the oldest
// request's queue wait. The daemon uses it to feed the chatlsd_batch_size
// and chatlsd_batch_wait_ns histograms. No-op before EnableBatching.
func (db *Database) SetBatchObserver(fn func(size int, wait time.Duration)) {
	if db.batch == nil {
		return
	}
	db.batch.global.SetObserver(fn)
	db.batch.text.SetObserver(fn)
}

// BatchStats returns cumulative flush/item counts summed over both
// embedding queues (zero before EnableBatching).
func (db *Database) BatchStats() batch.Stats {
	if db.batch == nil {
		return batch.Stats{}
	}
	g, t := db.batch.global.Stats(), db.batch.text.Stats()
	return batch.Stats{Flushes: g.Flushes + t.Flushes, Items: g.Items + t.Items}
}

// embedGlobal computes a design-level embedding, through the admission
// queue when batching is enabled.
func (db *Database) embedGlobal(ctx context.Context, dg *circuitmentor.DesignGraph) ([]float64, error) {
	if db.batch == nil {
		return db.Mentor.EmbedGlobal(dg), nil
	}
	return db.batch.global.DoContext(ctx, dg.G)
}

// embedText embeds query text, through the admission queue when batching is
// enabled.
func (db *Database) embedText(ctx context.Context, text string) ([]float64, error) {
	if db.batch == nil {
		return db.Embedder.Embed(text), nil
	}
	return db.batch.text.DoContext(ctx, text)
}
