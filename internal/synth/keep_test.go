package synth

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/liberty"
)

// keepOwners are two owners for kept values, as a library and a database are
// for the analysis and the embedding.
var keepOwners = [2]*int{new(int), new(int)}

// link links the test design through store, or another design when other
// is set, and returns the handle of the run.
func link(store *CheckpointStore, other bool) (Snapshot, error) {
	s := NewSession(liberty.Nangate45())
	s.Checkpoints = store
	src, top := testDesignSrc, "tiny"
	if other {
		src, top = strings.Replace(testDesignSrc, "tiny", "tiny2", -1), "tiny2"
	}
	s.AddSource("tiny.v", src)
	res, err := s.Evaluate(context.Background(), "read_verilog tiny.v\ncurrent_design "+top+"\nlink\n")
	if err != nil {
		return Snapshot{}, err
	}
	return res.Snapshot, nil
}

func linkTiny(t *testing.T, store *CheckpointStore, other bool) Snapshot {
	t.Helper()
	snap, err := link(store, other)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestKeep: a value is kept under its owner and N for as long as the store
// holds the snapshot; an error is never kept; a handle that finds nothing —
// the zero one, another source or top, an evicted snapshot — computes every
// time and keeps nothing.
func TestKeep(t *testing.T) {
	store := NewCheckpointStore(1)
	snap := linkTiny(t, store, false)
	computed := 0
	keep := func(h Snapshot, src, top string, owner *int, n uint64, fail bool) (any, bool, error) {
		return h.Keep(src, top, KeepKey{Owner: owner, N: n}, func() (any, error) {
			computed++
			if fail {
				return nil, errors.New("refused")
			}
			return fmt.Sprint(owner == keepOwners[0], n), nil
		})
	}
	calls := []struct {
		what     string
		h        Snapshot
		src, top string
		owner    *int
		n        uint64
		fail     bool
		hit      bool
	}{
		{"first", snap, testDesignSrc, "tiny", keepOwners[0], 1, false, false},
		{"again", snap, testDesignSrc, "tiny", keepOwners[0], 1, false, true},
		{"another N", snap, testDesignSrc, "tiny", keepOwners[0], 2, false, false},
		{"another owner", snap, testDesignSrc, "tiny", keepOwners[1], 1, false, false},
		{"another owner again", snap, testDesignSrc, "tiny", keepOwners[1], 1, false, true},
		{"an error", snap, testDesignSrc, "tiny", keepOwners[0], 3, true, false},
		{"after an error", snap, testDesignSrc, "tiny", keepOwners[0], 3, false, false},
		{"after an error, again", snap, testDesignSrc, "tiny", keepOwners[0], 3, false, true},
		{"the zero handle", Snapshot{}, testDesignSrc, "tiny", keepOwners[0], 1, false, false},
		{"another source", snap, testDesignSrc + "\n", "tiny", keepOwners[0], 1, false, false},
		{"another top", snap, testDesignSrc, "tiny2", keepOwners[0], 1, false, false},
	}
	for _, c := range calls {
		before := computed
		v, hit, err := keep(c.h, c.src, c.top, c.owner, c.n, c.fail)
		if hit != c.hit || (computed == before) != c.hit || (err != nil) != c.fail {
			t.Errorf("%s: (%v, hit %v, %v) after %d computations, want hit=%v fail=%v", c.what, v, hit, err, computed-before, c.hit, c.fail)
		}
		if want := fmt.Sprint(c.owner == keepOwners[0], c.n); !c.fail && v != want {
			t.Errorf("%s: %v, want %v", c.what, v, want)
		}
	}
	linkTiny(t, store, true) // the one-entry store evicts snap
	for i := 0; i < 2; i++ {
		if _, hit, _ := keep(snap, testDesignSrc, "tiny", keepOwners[0], 1, false); hit {
			t.Error("an evicted snapshot served a kept value")
		}
	}
	if again := linkTiny(t, store, false); again != snap {
		t.Fatal("relinking the design named another snapshot")
	}
	if _, hit, _ := keep(snap, testDesignSrc, "tiny", keepOwners[0], 1, false); hit {
		t.Error("a recaptured snapshot served a value kept on the evicted one")
	}
}

// TestKeepHammer: sixteen goroutines keep values on one snapshot of a
// one-entry store — keys that hit, keys whose computation fails, and keys
// first computed by racing callers — while some of them evict the snapshot by
// linking another design and capture it again. Every call gets its key's
// value or its key's error, a failing key is never served as a hit, and no
// call sees another key's value. make derived-race runs it ten times under
// -race.
func TestKeepHammer(t *testing.T) {
	store := NewCheckpointStore(1)
	snap := linkTiny(t, store, false)
	const workers, rounds, keys = 16, 40, 6
	var hits atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if (g+i)%9 == 0 {
					if _, err := link(store, (g+i)%2 == 0); err != nil {
						t.Error(err)
					}
					continue
				}
				n := uint64((g*7 + i) % keys)
				owner := keepOwners[(g+i)%2]
				v, hit, err := snap.Keep(testDesignSrc, "tiny", KeepKey{Owner: owner, N: n}, func() (any, error) {
					if n == 0 {
						return nil, errors.New("refused")
					}
					return [2]any{owner, n}, nil
				})
				if hit {
					hits.Add(1)
				}
				switch {
				case n == 0 && (err == nil || hit):
					t.Errorf("failing key: (%v, hit %v, %v)", v, hit, err)
				case n != 0 && (err != nil || v != [2]any{owner, n}):
					t.Errorf("key %d: (%v, %v)", n, v, err)
				}
			}
		}(g)
	}
	wg.Wait()
	if hits.Load() == 0 || store.Stats().Evictions == 0 {
		t.Errorf("%d hits and %d evictions: the mix did not happen", hits.Load(), store.Stats().Evictions)
	}
}
