// Package arena provides chunked typed arenas: many small objects carved
// out of a few geometrically growing backing arrays. The point is allocator
// pressure, not speed of a single allocation — elaborating a large design
// creates hundreds of thousands of nets, cells, pins, and AST nodes, and
// allocating each with new() costs one GC-visible object apiece. An arena
// turns that into one allocation per chunk.
//
// Pointers returned by New are stable for the lifetime of the arena: chunks
// are never reallocated, resized, or moved, so callers may freely link the
// objects into graphs. Objects are individually unreclaimable — the arena
// holds every chunk alive until the arena itself (typically owned by the
// containing Netlist or parse result) becomes garbage. That is the same
// lifetime the per-object allocations had in practice: a netlist retains
// its dead nets' memory through Sinks slices and ID maps anyway.
//
// Chunks double from 64 objects and stop growing at 1 024. An arena's last
// chunk is partly empty, and the larger the chunks the larger that tail: the
// seven benchmarks' elaborations hold 28 101 cells in 42 560 slots with
// chunks doubling to 8 192, and in 32 320 slots capped at 1 024 (nets: 44 027
// in 67 136 and 47 680), for a few more chunks an arena.
//
// The zero value is ready to use. An Arena is not safe for concurrent use;
// give each goroutine (each Netlist, each parser) its own.
package arena

const (
	minChunkShift = 6  // first chunk: 64 objects
	maxChunkShift = 10 // chunks cap at 1024 objects
)

// Arena allocates zeroed values of T from chunked backing arrays.
type Arena[T any] struct {
	cur    []T // active chunk; len(cur) == cap(cur) means full
	grown  uint
	allocs int
}

// New returns a pointer to a new zero-valued T. The pointer remains valid
// and stable for the arena's lifetime.
func (a *Arena[T]) New() *T {
	if len(a.cur) == cap(a.cur) {
		shift := minChunkShift + a.grown
		if shift < maxChunkShift {
			a.grown++
		} else {
			shift = maxChunkShift
		}
		a.cur = make([]T, 0, 1<<shift)
	}
	a.cur = a.cur[:len(a.cur)+1]
	a.allocs++
	return &a.cur[len(a.cur)-1]
}

// Len returns the number of objects handed out so far.
func (a *Arena[T]) Len() int { return a.allocs }
