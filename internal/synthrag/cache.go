package synthrag

import (
	"encoding/binary"
	"math"
	"strings"
	"time"

	"repro/internal/batch"
	"repro/internal/circuitmentor"
	"repro/internal/lru"
)

// Concurrency: a Database is mutable only during Build. Once Build returns,
// every serving-path method (EmbedDesign*, RetrieveStrategies*,
// SearchManual*, ModuleCode, CellInfo, RetrieveModules) only reads — the
// graph database executes MATCH queries over built indexes, the GNN forward
// pass allocates fresh state per call, and the vector indexes are scan-only
// — so one Database is safe for any number of concurrent readers. The
// optional cache enabled below is internally locked.

type embedEntry struct {
	emb []float64
	dg  *circuitmentor.DesignGraph
}

// dbCache memoizes the two expensive idempotent retrieval stages: design
// graph embedding (parse + GNN forward) and reranked strategy retrieval.
type dbCache struct {
	embed    *lru.Cache[designKey, embedEntry]
	retrieve *lru.Cache[string, []StrategyHit]
}

// EnableCache equips the database with bounded LRU caches for design
// embeddings and strategy-retrieval results. Intended for long-lived
// serving processes where the same designs recur across requests; the
// one-shot experiment harness leaves it off. Call before sharing the
// database across goroutines (the caches themselves are concurrency-safe,
// but enabling mid-flight races with readers).
//
// Calling it again starts a new serving lifetime: both caches are replaced
// by empty ones and CircuitMentor's process-wide analysis memo is emptied
// with them, so a caller that re-enables to model a daemon restart (the
// repo benchmark's cold-lifecycle replay) gets the cold analysis a restarted
// daemon pays.
func (db *Database) EnableCache(embedCap, retrieveCap int) {
	circuitmentor.ResetMemo()
	db.cache = &dbCache{
		embed:    lru.New[designKey, embedEntry](embedCap),
		retrieve: lru.New[string, []StrategyHit](retrieveCap),
	}
}

// CacheStats reports the cache hit/miss counters (zero when the cache is
// not enabled).
type CacheStats struct {
	EmbedHits, EmbedMisses       int64
	RetrieveHits, RetrieveMisses int64
}

// CacheStats returns the current cache counters.
func (db *Database) CacheStats() CacheStats {
	if db.cache == nil {
		return CacheStats{}
	}
	return CacheStats{
		EmbedHits:      db.cache.embed.Hits(),
		EmbedMisses:    db.cache.embed.Misses(),
		RetrieveHits:   db.cache.retrieve.Hits(),
		RetrieveMisses: db.cache.retrieve.Misses(),
	}
}

// EnableBatching does nothing. It is kept for the benchmark module (bench/),
// which calls it while embeddings now always run inline on the caller.
func (db *Database) EnableBatching(time.Duration, int) {}

// BatchStats is kept for the benchmark module (bench/): Items counts the
// serving-path embeddings computed so far (EmbedDesign* misses and
// SearchManual* queries), which the replay differences around a refinement
// to count manual searches.
func (db *Database) BatchStats() batch.Stats {
	return batch.Stats{Items: db.embeds.Load()}
}

// designKey identifies a design for the embedding cache by the source and
// top themselves: a wrong embedding served from the cache would silently
// corrupt retrieval, so the key is the content, never a digest of it.
type designKey struct {
	src, top string
}

func embedKey(src, top string) designKey { return designKey{src: src, top: top} }

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

// cachedEmbed consults the embedding cache; ok is false when caching is off
// or the key misses.
func (db *Database) cachedEmbed(key designKey) ([]float64, *circuitmentor.DesignGraph, bool) {
	if db.cache == nil {
		return nil, nil, false
	}
	e, ok := db.cache.embed.Get(key)
	if !ok {
		return nil, nil, false
	}
	// The embedding is copied so a caller mutating its slice cannot corrupt
	// the cache; the graph is shared read-only.
	return append([]float64(nil), e.emb...), e.dg, true
}

func (db *Database) storeEmbed(key designKey, emb []float64, dg *circuitmentor.DesignGraph) {
	if db.cache == nil {
		return
	}
	db.cache.embed.Add(key, embedEntry{emb: append([]float64(nil), emb...), dg: dg})
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
