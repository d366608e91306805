package synthrag

import (
	"encoding/binary"
	"math"
	"strings"
	"time"

	"repro/internal/batch"
	"repro/internal/lru"
)

// Concurrency: a Database is mutable only during Build. Once Build returns,
// every serving-path method (EmbedDesign*, RetrieveStrategies*,
// SearchManual*, ModuleCode, CellInfo, RetrieveModules) only reads — the
// graph database executes MATCH queries over built indexes, the GNN forward
// pass allocates fresh state per call, and the vector indexes are scan-only
// — so one Database is safe for any number of concurrent readers. The
// optional cache enabled below is internally locked, and so is the snapshot a
// design's embedding is kept on.

// dbCache memoizes reranked strategy retrieval, the one serving-path stage
// whose result is not a per-design artefact: its key is the query embedding
// plus the traits and rerank weights, so it does not live on a snapshot.
type dbCache struct {
	retrieve *lru.Cache[string, []StrategyHit]
}

// EnableCache equips the database with a bounded LRU cache for
// strategy-retrieval results. Intended for long-lived serving processes where
// the same designs recur across requests; the one-shot experiment harness
// leaves it off. Call before sharing the database across goroutines (the
// cache itself is concurrency-safe, but enabling mid-flight races with
// readers). Calling it again replaces the cache by an empty one.
//
// embedCap is unused: a design's embedding is kept on its checkpoint
// snapshot (EmbedSnapshotContext). The parameter stays for the benchmark
// module (bench/), which passes it.
func (db *Database) EnableCache(embedCap, retrieveCap int) {
	db.cache = &dbCache{retrieve: lru.New[string, []StrategyHit](retrieveCap)}
}

// CacheStats reports the serving-path counters: embeddings read off a
// snapshot (EmbedHits) and computed (EmbedMisses), and the retrieval cache's
// hits and misses (zero when the cache is not enabled).
type CacheStats struct {
	EmbedHits, EmbedMisses       int64
	RetrieveHits, RetrieveMisses int64
}

// CacheStats returns the current counters.
func (db *Database) CacheStats() CacheStats {
	st := CacheStats{EmbedHits: db.counts.embedHits.Load(), EmbedMisses: db.counts.embedMisses.Load()}
	if db.cache != nil {
		st.RetrieveHits, st.RetrieveMisses = db.cache.retrieve.Hits(), db.cache.retrieve.Misses()
	}
	return st
}

// EnableBatching does nothing. It is kept for the benchmark module (bench/),
// which calls it while embeddings now always run inline on the caller.
func (db *Database) EnableBatching(time.Duration, int) {}

// BatchStats is kept for the benchmark module (bench/): Items counts the
// serving-path embeddings computed so far (EmbedDesign* misses and
// SearchManual* queries), which the replay differences around a refinement
// to count manual searches.
func (db *Database) BatchStats() batch.Stats {
	return batch.Stats{Items: db.counts.embedMisses.Load() + db.counts.manualSearches.Load()}
}

// retrieveKey identifies one retrieval request by its framed bytes: the
// query embedding bits, the trait set, and the rerank parameters. Element
// and trait counts (and each trait's length) are framed into the key, so
// the query/trait boundary and trait boundaries are unambiguous: a query
// float can never be re-read as trait bytes, and traits containing NUL
// cannot alias a longer trait list.
func retrieveKey(query []float64, traits []string, k int, alpha, beta, gamma float64) string {
	n := 8 * (len(query) + len(traits) + 6)
	for _, t := range traits {
		n += len(t)
	}
	var key strings.Builder
	key.Grow(n)
	var b [8]byte
	putU := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		key.Write(b[:])
	}
	put := func(f float64) { putU(math.Float64bits(f)) }
	putU(uint64(len(query)))
	for _, q := range query {
		put(q)
	}
	putU(uint64(len(traits)))
	for _, t := range traits {
		putU(uint64(len(t)))
		key.WriteString(t)
	}
	putU(uint64(k))
	put(alpha)
	put(beta)
	put(gamma)
	return key.String()
}

func (db *Database) cachedRetrieve(key string) ([]StrategyHit, bool) {
	if db.cache == nil {
		return nil, false
	}
	hits, ok := db.cache.retrieve.Get(key)
	if !ok {
		return nil, false
	}
	return append([]StrategyHit(nil), hits...), true
}

func (db *Database) storeRetrieve(key string, hits []StrategyHit) {
	if db.cache == nil {
		return
	}
	db.cache.retrieve.Add(key, append([]StrategyHit(nil), hits...))
}
