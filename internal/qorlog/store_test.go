package qorlog

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/resilience"
)

func TestStoreNilIsInert(t *testing.T) {
	var s *Store
	if _, ok := s.Get(testKey(0)); ok {
		t.Fatal("nil store must miss")
	}
	s.Put(testKey(0), testRecord(0))
	if s.Degraded() || s.Len() != 0 || s.Stats() != (StoreStats{}) {
		t.Fatal("nil store must report zeros")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("nil Sync: %v", err)
	}
}

func TestStoreWarmRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "qor.log")
	s1, err := OpenStore(path, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	for i := 0; i < n; i++ {
		s1.Put(testKey(i), testRecord(i))
	}
	if err := s1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	s2, err := OpenStore(path, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.Warmed != n || st.Recovered != n {
		t.Fatalf("stats = %+v, want %d warmed and recovered", st, n)
	}
	for i := 0; i < n; i++ {
		rec, ok := s2.Get(testKey(i))
		if !ok || rec != testRecord(i) {
			t.Fatalf("record %d not served bit-identically after warm restart", i)
		}
	}
	if got := s2.Stats().Hits; got != n {
		t.Fatalf("hits = %d, want %d", got, n)
	}
}

// TestStorePutDedupSkipsUnchanged: a held key takes no second record. A
// repeat sweep's identical re-puts append nothing, and neither does a
// different record, which is not served either, before or after a reopen.
func TestStorePutDedupSkipsUnchanged(t *testing.T) {
	path := filepath.Join(t.TempDir(), "qor.log")
	s, err := OpenStore(path, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.Put(testKey(0), testRecord(0)) // unchanged: a repeat sweep
	}
	s.Put(testKey(0), testRecord(1)) // a different record for a held key
	if got := s.Stats().Appends; got != 1 {
		t.Fatalf("appends = %d, want 1 (a held key takes no second record)", got)
	}
	if rec, _ := s.Get(testKey(0)); rec != testRecord(0) {
		t.Fatalf("store serves %+v, want the first record", rec)
	}
	s.Close()

	s2, err := OpenStore(path, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.Recovered != 1 {
		t.Fatalf("reopen recovered %d records, want 1", st.Recovered)
	}
	s2.Put(testKey(0), testRecord(2)) // held by replay
	if rec, _ := s2.Get(testKey(0)); rec != testRecord(0) || s2.Stats().Appends != 0 {
		t.Fatalf("reopened store serves %+v after %d appends, want the first record after 0",
			rec, s2.Stats().Appends)
	}
}

// TestStoreKeepsFirstRecordInMemory: the records a store keeps in memory —
// a memory-only store's, and a degraded store's — are write-once too, and a
// degraded store does not shadow a record its log holds.
func TestStoreKeepsFirstRecordInMemory(t *testing.T) {
	mem := NewMemoryStore(0)
	mem.Put(testKey(0), testRecord(0))
	mem.Put(testKey(0), testRecord(1))
	if rec, _ := mem.Get(testKey(0)); rec != testRecord(0) {
		t.Fatalf("memory store serves %+v, want the first record", rec)
	}

	path := filepath.Join(t.TempDir(), "qor.log")
	inj := resilience.NewDiskInjector(
		resilience.DiskFault{Op: resilience.DiskWrite, Mode: resilience.DiskKill, Calls: []int{3}})
	s, err := OpenStore(path, 0, Options{Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.warnf = func(string, ...any) {}
	s.Put(testKey(0), testRecord(0)) // write 2: logged
	s.Put(testKey(1), testRecord(1)) // write 3: killed -> degrade, held in memory
	if !s.Degraded() {
		t.Fatal("store must degrade after a fatal append failure")
	}
	s.Put(testKey(0), testRecord(5)) // held by the log
	s.Put(testKey(1), testRecord(6)) // held in memory
	for i := 0; i < 2; i++ {
		if rec, _ := s.Get(testKey(i)); rec != testRecord(i) {
			t.Fatalf("degraded store serves %+v for key %d, want the first record", rec, i)
		}
	}
}

// TestStoreGetFallsBackToLogIndex: a record evicted from the tiny LRU is
// still served from the log's replay index (and re-promoted).
func TestStoreGetFallsBackToLogIndex(t *testing.T) {
	path := filepath.Join(t.TempDir(), "qor.log")
	s, err := OpenStore(path, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 6; i++ {
		s.Put(testKey(i), testRecord(i))
	}
	rec, ok := s.Get(testKey(0)) // long since evicted from the 2-entry LRU
	if !ok || rec != testRecord(0) {
		t.Fatal("evicted record must still hit via the log index")
	}
}

// TestStoreDegradesToMemoryOnFatalDiskError: a killed writer must not take
// requests down — the store warns once, stops writing, and keeps serving.
func TestStoreDegradesToMemoryOnFatalDiskError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "qor.log")
	inj := resilience.NewDiskInjector(
		resilience.DiskFault{Op: resilience.DiskWrite, Mode: resilience.DiskKill, Calls: []int{3}})
	s, err := OpenStore(path, 0, Options{Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	var warnings []string
	s.warnf = func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	}

	s.Put(testKey(0), testRecord(0)) // write 2: clean
	s.Put(testKey(1), testRecord(1)) // write 3: killed -> degrade
	if !s.Degraded() {
		t.Fatal("store must degrade after a fatal append failure")
	}
	if len(warnings) != 1 {
		t.Fatalf("got %d warnings, want exactly 1", len(warnings))
	}

	// Degraded mode keeps serving: puts cache in memory, gets still answer.
	s.Put(testKey(2), testRecord(2))
	for i := 0; i < 3; i++ {
		if rec, ok := s.Get(testKey(i)); !ok || rec != testRecord(i) {
			t.Fatalf("degraded store dropped record %d", i)
		}
	}
	if len(warnings) != 1 {
		t.Fatal("degradation must warn once, not per request")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("closing a degraded store must not error: %v", err)
	}
}

// TestStoreRetriesTransientDiskError: one short write is rewound and
// retried without degrading.
func TestStoreRetriesTransientDiskError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "qor.log")
	inj := resilience.NewDiskInjector(
		resilience.DiskFault{Op: resilience.DiskWrite, Mode: resilience.DiskShort, Calls: []int{2}})
	s, err := OpenStore(path, 0, Options{Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	s.Put(testKey(0), testRecord(0)) // first attempt short-writes, retry lands
	if s.Degraded() {
		t.Fatal("a transient error must not degrade the store")
	}
	st := s.Stats()
	if st.AppendErrors != 1 || st.Appends != 1 {
		t.Fatalf("stats = %+v, want 1 failed attempt and 1 landed append", st)
	}
	s.Close()

	s2, err := OpenStore(path, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec, ok := s2.Get(testKey(0)); !ok || rec != testRecord(0) {
		t.Fatal("retried record must be durable")
	}
}

func TestMemoryStore(t *testing.T) {
	s := NewMemoryStore(0)
	s.Put(testKey(0), testRecord(0))
	if rec, ok := s.Get(testKey(0)); !ok || rec != testRecord(0) {
		t.Fatal("memory store must serve its puts")
	}
	if st := s.Stats(); st.Appends != 0 || st.Hits != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreConcurrent hammers one store from many goroutines (-race is the
// assertion).
func TestStoreConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "qor.log")
	s, err := OpenStore(path, 16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := testKey(i % 10)
				s.Put(k, testRecord(i%10))
				s.Get(k)
				s.Stats()
			}
		}(g)
	}
	wg.Wait()
	if s.Degraded() {
		t.Fatal("unfaulted store must not degrade")
	}
}
