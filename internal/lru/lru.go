// Package lru is a small, concurrency-safe LRU cache used by the serving
// layer to memoize the pipeline's expensive idempotent stages (baseline task
// construction, design-graph embeddings, strategy retrieval). Every cache
// keeps its own hit/miss counters so the server can surface them as metrics
// without wrapping each call site.
package lru

import (
	"container/list"
	"sync"
	"sync/atomic"
)

type entry[K comparable, V any] struct {
	key K
	val V
}

// Cache is a fixed-capacity least-recently-used cache. The zero value is not
// usable; construct with New. All methods are safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recent
	items map[K]*list.Element

	hits, misses, evictions atomic.Int64
}

// New creates a cache holding at most capacity entries (capacity < 1 is
// treated as 1).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[K, V]{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[K]*list.Element),
	}
}

// Get returns the cached value and whether it was present, updating recency
// and the hit/miss counters.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits.Add(1)
		return el.Value.(*entry[K, V]).val, true
	}
	c.misses.Add(1)
	var zero V
	return zero, false
}

// Add stores a value, evicting the least recently used entry when the cache
// is full. Adding an existing key updates its value and recency.
func (c *Cache[K, V]) Add(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[K, V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	if c.ll.Len() >= c.cap {
		back := c.ll.Back()
		if back != nil {
			c.ll.Remove(back)
			delete(c.items, back.Value.(*entry[K, V]).key)
			c.evictions.Add(1)
		}
	}
	c.items[key] = c.ll.PushFront(&entry[K, V]{key: key, val: val})
}

// Peek returns the cached value without updating recency or the hit/miss
// counters — for callers asking "is this already stored?" (e.g. the QoR
// log's append dedup) rather than serving a lookup.
func (c *Cache[K, V]) Peek(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		return el.Value.(*entry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Purge drops every entry. The hit/miss/eviction counters keep counting:
// they are lifetime totals (exported as monotonic metrics), not a property
// of the current contents.
func (c *Cache[K, V]) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.items)
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Hits returns the number of Get calls that found their key.
func (c *Cache[K, V]) Hits() int64 { return c.hits.Load() }

// Misses returns the number of Get calls that did not find their key.
func (c *Cache[K, V]) Misses() int64 { return c.misses.Load() }

// Evictions returns the number of entries displaced by capacity pressure
// (updates of an existing key do not count).
func (c *Cache[K, V]) Evictions() int64 { return c.evictions.Load() }
