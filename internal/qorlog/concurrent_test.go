package qorlog

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
)

// TestStoreConcurrentPutGet hammers a live store with concurrent writers
// that race to put different records for the same keys, and readers: each
// key serves one record from the first read on, and a reopen recovers
// exactly what the live store served. Run under -race (make race / make
// check does).
func TestStoreConcurrentPutGet(t *testing.T) {
	path := filepath.Join(t.TempDir(), "qor.log")
	store, err := OpenStore(path, 8, Options{})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}

	const (
		writers = 4
		readers = 2
		iters   = 300
		keys    = 16
	)
	keyOf := func(i int) Key { return KeyOf(fmt.Sprintf("key-%d", i%keys)) }

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				rec := Record{Design: fmt.Sprintf("d%d", i%keys), Area: float64(w*iters + i), Cells: i}
				store.Put(keyOf(i), rec)
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := make(map[Key]Record, keys)
			for i := 0; i < iters; i++ {
				k := keyOf(i)
				if rec, ok := store.Get(k); ok {
					if first, ok := seen[k]; ok && first != rec {
						t.Errorf("key %x changed from %+v to %+v", k[:4], first, rec)
						return
					}
					seen[k] = rec
				}
				if i%32 == 0 {
					store.Stats()
					store.Len()
				}
			}
		}()
	}
	wg.Wait()

	if store.Degraded() {
		t.Fatal("store degraded with no injected faults")
	}
	if got := store.Stats().Appends; got != keys {
		t.Fatalf("appends = %d, want one per key (%d)", got, keys)
	}
	finals := make(map[Key]Record, keys)
	for i := 0; i < keys; i++ {
		rec, ok := store.Get(keyOf(i))
		if !ok {
			t.Fatalf("key %d missing after hammer", i)
		}
		finals[keyOf(i)] = rec
	}
	if err := store.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// The reopened log must recover exactly the state the live store was
	// serving: every key present, each with the one record it was given.
	reopened, err := OpenStore(path, 8, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer reopened.Close()
	if st := reopened.Stats(); st.DroppedBytes != 0 || st.Recovered != keys {
		t.Fatalf("reopen stats %+v, want %d clean records", st, keys)
	}
	if got := reopened.Len(); got != keys {
		t.Fatalf("reopened store has %d records, want %d", got, keys)
	}
	for k, want := range finals {
		got, ok := reopened.Get(k)
		if !ok || got != want {
			t.Fatalf("key %x: reopened record %+v, want %+v (ok=%v)", k[:4], got, want, ok)
		}
	}
}
