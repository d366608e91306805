package qorlog

import (
	"log"
	"sync"
	"sync/atomic"

	"repro/internal/lru"
	"repro/internal/resilience"
)

// Store is the serving-path view of the QoR log: reads served from the log's
// replay index, write-through appends with retry, and graceful degradation —
// when the disk stops cooperating the store drops to memory-only mode with a
// warning instead of failing requests. Records that never reach a log — a
// memory-only store's, or those put after the log degraded or closed — live in
// a bounded LRU, which a log-backed store otherwise leaves empty: a logged
// record is held once, in the index. A nil *Store disables result caching
// entirely (every method is nil-safe), so callers thread it through
// unconditionally.
//
// Safe for concurrent use.
type Store struct {
	mu     sync.Mutex
	log    *Log // nil for a memory-only store
	closed bool // the log's file is closed; its index still serves
	cache  *lru.Cache[Key, Record]

	degraded   atomic.Bool
	hits       atomic.Int64
	misses     atomic.Int64
	appendErrs atomic.Int64
	warmed     int64

	// warnf sinks degradation warnings (default log.Printf; tests override).
	warnf func(format string, args ...any)
}

// DefaultCacheCap bounds the in-memory record cache when the caller passes
// a non-positive capacity. Records are ~100 bytes, so even the default is
// cheap.
const DefaultCacheCap = 4096

// appendAttempts bounds the retries of one record append while the error
// classifies as transient (resilience.IsRetryableDisk).
const appendAttempts = 3

// OpenStore opens the durable log at path — the warm-restart path: every
// record the log replays is served from its index at once. Record-level
// corruption never fails the open (see Open); a real I/O error does, and the
// caller decides whether to run memory-only instead. cacheCap bounds only the
// records that never reach the log (see Store); the log's own are unbounded,
// like the file.
func OpenStore(path string, cacheCap int, opts Options) (*Store, error) {
	l, err := Open(path, opts)
	if err != nil {
		return nil, err
	}
	s := newStore(l, cacheCap)
	s.warmed = int64(l.Len())
	return s, nil
}

// NewMemoryStore builds a store with no backing log: results are cached
// for the process lifetime only.
func NewMemoryStore(cacheCap int) *Store {
	return newStore(nil, cacheCap)
}

func newStore(l *Log, cacheCap int) *Store {
	if cacheCap <= 0 {
		cacheCap = DefaultCacheCap
	}
	return &Store{
		log:   l,
		cache: lru.New[Key, Record](cacheCap),
		warnf: log.Printf,
	}
}

// Get returns the record for key, from the log's index or, for a record
// that never reached the log, from memory.
func (s *Store) Get(key Key) (Record, bool) {
	if s == nil {
		return Record{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec, ok := s.get(key); ok {
		s.hits.Add(1)
		return rec, true
	}
	s.misses.Add(1)
	return Record{}, false
}

func (s *Store) get(key Key) (Record, bool) {
	if rec, ok := s.cache.Get(key); ok || s.log == nil {
		return rec, ok
	}
	return s.log.Get(key)
}

// writable reports whether puts still append to the log.
func (s *Store) writable() bool { return s.log != nil && !s.closed && !s.degraded.Load() }

// Put stores a record for a key the store does not hold yet, appending it
// to the log when one is open and the store has not degraded. For a held
// key it stores nothing, in the log or in memory: a key's inputs fix its
// record, so the first one stays, and neither a repeat sweep nor a faulty
// client can grow the log or replace it. A fatal append failure — or a
// transient one that survives every retry — degrades the store to
// memory-only mode with a warning; requests keep being served.
func (s *Store) Put(key Key, rec Record) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, held := s.get(key); held {
		return
	}
	if !s.writable() {
		s.cache.Add(key, rec)
		return
	}
	failures, err := resilience.RetryBounded(appendAttempts, resilience.IsRetryableDisk,
		func() error { return s.log.Append(key, rec) })
	s.appendErrs.Add(int64(failures))
	if err == nil {
		return
	}
	s.cache.Add(key, rec)
	s.degraded.Store(true)
	s.warnf("qorlog: log write failed, degrading to memory-only mode "+
		"(results from this process will not survive a restart): %v", err)
}

// Degraded reports whether log writes have been abandoned for this process.
func (s *Store) Degraded() bool { return s != nil && s.degraded.Load() }

// Len returns the number of records (a log-backed store counts the log's).
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log != nil {
		return s.log.Len()
	}
	return s.cache.Len()
}

// Sync makes appended records durable now (Close also syncs).
func (s *Store) Sync() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.writable() {
		return nil
	}
	return s.log.Sync()
}

// Close flushes and closes the backing log. Nil-safe and idempotent; the
// store keeps serving after Close (shutdown calls it early), the log's
// records from its index and later puts from memory.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil || s.closed {
		return nil
	}
	s.closed = true
	err := s.log.Close()
	if s.degraded.Load() {
		return nil // the failure was already reported when it degraded
	}
	return err
}

// StoreStats is the store's lifetime counters, exposed by the daemon as
// qorlog_* metrics. Nil-safe: a nil store reports zeros.
type StoreStats struct {
	Hits, Misses int64 // result-cache lookups
	Warmed       int64 // records the log replayed at open
	Appends      int64 // records appended this session
	AppendErrors int64 // failed append attempts (before retry/degradation)
	Recovered    int64 // fully-written records replayed by recovery
	DroppedBytes int64 // torn/corrupt trailing bytes truncated by recovery
	Degraded     bool  // true once log writes were abandoned
}

// Stats returns the current counters.
func (s *Store) Stats() StoreStats {
	if s == nil {
		return StoreStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := StoreStats{
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		Warmed:       s.warmed,
		AppendErrors: s.appendErrs.Load(),
		Degraded:     s.degraded.Load(),
	}
	if s.log != nil {
		st.Appends = s.log.Appends()
		st.Recovered = int64(s.log.Stats().Recovered)
		st.DroppedBytes = s.log.Stats().DroppedBytes
	}
	return st
}
