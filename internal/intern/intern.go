// Package intern keeps one process-lifetime copy of the computed names that
// elaboration and the optimization passes generate over and over — "n42",
// "U17", "busA[3]" — once per elaboration of every design, and again for
// every cell a pass adds and every checkpoint a run restores. Two shapes, two
// mechanisms:
//
//   - Namer generates prefix + decimal(i) for the dense, generated IDs of
//     nets and cells. It is a lock-free table indexed by i: nothing is hashed,
//     nothing is locked, and cores naming cells at once share no written
//     cache line.
//   - Bracket interns name + "[" + decimal(i) + "]", the per-bit port and bus
//     net names, whose first half is arbitrary text, in a sharded map.
//
// Both are safe for concurrent use (elaborations run in parallel during
// database builds, restores on every serving core), allocate nothing on a
// hit, and are bounded: past a fixed entry count they return freshly built
// strings, so a hostile workload (fuzzing, unbounded generated names)
// degrades to plain allocation instead of growing memory without limit.
// Callers must never mutate the returned strings (Go strings are immutable;
// this is only a reminder that the values are shared across goroutines).
package intern

import (
	"strconv"
	"sync"
	"sync/atomic"
)

const (
	namerChunkBits = 10
	namerChunkSize = 1 << namerChunkBits
	// namerChunks bounds a Namer at 1 Mi names (the entry bound the sharded
	// map this table replaced had), far above any corpus need — the largest
	// shipped design stays below 40 k net IDs — but finite under adversarial
	// input: a full table is ≈ 24 MiB.
	namerChunks = 1 << 10
)

// Namer generates the names prefix + decimal(i), e.g. NewNamer("n").Name(42)
// == "n42", keeping one copy of each for the life of the process.
//
// Names live in fixed-size chunks of consecutive indexes. A chunk is built
// whole the first time any of its names is asked for — every name of the
// chunk cut from one backing string — and published with a compare-and-swap;
// goroutines racing on a fresh chunk each build it and all but one throw
// theirs away, so every caller sees the same strings. A hit is one atomic
// load and two index operations.
type Namer struct {
	prefix string
	chunks [namerChunks]atomic.Pointer[[namerChunkSize]string]
}

// NewNamer returns an empty namer for prefix.
func NewNamer(prefix string) *Namer { return &Namer{prefix: prefix} }

// Name returns prefix + decimal(i). Indexes outside the table — negative, or
// at and past the 1 Mi bound — are plain concatenations, built on every call.
func (n *Namer) Name(i int) string {
	if uint(i) >= namerChunkSize*namerChunks {
		return n.prefix + strconv.Itoa(i)
	}
	slot := &n.chunks[i>>namerChunkBits]
	c := slot.Load()
	if c == nil {
		c = n.build(i &^ (namerChunkSize - 1))
		if !slot.CompareAndSwap(nil, c) {
			c = slot.Load()
		}
	}
	return c[i&(namerChunkSize-1)]
}

// build generates the chunk of names starting at index base.
func (n *Namer) build(base int) *[namerChunkSize]string {
	var end [namerChunkSize]int32
	const maxDigits = 7 // of namerChunkSize*namerChunks - 1
	buf := make([]byte, 0, namerChunkSize*(len(n.prefix)+maxDigits))
	for k := range end {
		buf = append(buf, n.prefix...)
		buf = strconv.AppendInt(buf, int64(base+k), 10)
		end[k] = int32(len(buf))
	}
	all := string(buf)
	c := new([namerChunkSize]string)
	lo := int32(0)
	for k, hi := range end {
		c[k] = all[lo:hi]
		lo = hi
	}
	return c
}

const (
	shardCount = 64
	shardMask  = shardCount - 1
	// maxShardEntries bounds each shard's map: 64 shards * 16384 entries caps
	// the bracket table at 1 Mi strings.
	maxShardEntries = 16384
)

type bracketKey struct {
	name string
	i    int
}

type shard struct {
	mu      sync.RWMutex
	bracket map[bracketKey]string
}

var shards [shardCount]*shard

func init() {
	for i := range shards {
		shards[i] = &shard{bracket: make(map[bracketKey]string)}
	}
}

// fnv1a hashes a string without allocating.
func fnv1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Bracket returns the interned form of name + "[" + decimal(i) + "]", the
// per-bit port and bus net naming scheme, e.g. Bracket("busA", 3) ==
// "busA[3]". The hit path allocates nothing.
func Bracket(name string, i int) string {
	sh := shards[(fnv1a(name)^uint32(i)*2654435761^0x9e3779b9)&shardMask]
	k := bracketKey{name: name, i: i}
	sh.mu.RLock()
	v, ok := sh.bracket[k]
	sh.mu.RUnlock()
	if ok {
		return v
	}
	s := name + "[" + strconv.Itoa(i) + "]"
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if v, ok := sh.bracket[k]; ok {
		return v
	}
	if len(sh.bracket) >= maxShardEntries {
		return s
	}
	sh.bracket[k] = s
	return s
}
