package lru

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetAddEvict(t *testing.T) {
	c := New[string, int](2)
	if _, ok := c.Get("a"); ok {
		t.Error("empty cache should miss")
	}
	c.Add("a", 1)
	c.Add("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Errorf("a = %d,%v", v, ok)
	}
	// "a" is now most recent; adding "c" must evict "b".
	c.Add("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted (LRU)")
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Errorf("a survived eviction wrongly: %d,%v", v, ok)
	}
	if v, ok := c.Get("c"); !ok || v != 3 {
		t.Errorf("c = %d,%v", v, ok)
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
}

func TestUpdateExistingKey(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1)
	c.Add("a", 2)
	if c.Len() != 1 {
		t.Errorf("len = %d, want 1", c.Len())
	}
	if v, _ := c.Get("a"); v != 2 {
		t.Errorf("a = %d, want 2", v)
	}
}

func TestHitMissCounters(t *testing.T) {
	c := New[int, int](4)
	c.Add(1, 1)
	c.Get(1) // hit
	c.Get(2) // miss
	c.Get(1) // hit
	if c.Hits() != 2 || c.Misses() != 1 {
		t.Errorf("hits %d misses %d, want 2/1", c.Hits(), c.Misses())
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New[string, int](16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", i%32)
				c.Add(k, i)
				c.Get(k)
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 16 {
		t.Errorf("len %d exceeds capacity", c.Len())
	}
}
