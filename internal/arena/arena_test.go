package arena

import "testing"

type node struct {
	id   int
	next *node
	pad  [3]uint64
}

// TestPointersStayValidAcrossChunks links every object to its predecessor
// while the arena grows through all its chunk sizes (64, 128, ... 1024,
// 1024): a chunk that moved or was reused would break the chain or the ids.
func TestPointersStayValidAcrossChunks(t *testing.T) {
	const n = 3 * (1 << maxChunkShift)
	var a Arena[node]
	ptrs := make([]*node, n)
	var prev *node
	for i := range ptrs {
		p := a.New()
		p.id, p.next = i, prev
		ptrs[i], prev = p, p
	}
	if a.Len() != n {
		t.Fatalf("Len = %d, want %d", a.Len(), n)
	}
	for i, p := range ptrs {
		if p.id != i {
			t.Fatalf("object %d reads id %d after later allocations", i, p.id)
		}
		if i > 0 && p.next != ptrs[i-1] {
			t.Fatalf("object %d lost its link to object %d", i, i-1)
		}
	}
	// The walk from the last object reaches the first: n distinct addresses.
	steps := 0
	for p := prev; p != nil; p = p.next {
		steps++
	}
	if steps != n {
		t.Fatalf("chain from the last object has %d links, want %d", steps, n)
	}
}

// TestAllocationsAreZeroed dirties every object it is handed; a later New
// returning a non-zero value would mean a slot was handed out twice.
func TestAllocationsAreZeroed(t *testing.T) {
	var a Arena[node]
	for i := 0; i < 2*(1<<minChunkShift)+5; i++ {
		p := a.New()
		if *p != (node{}) {
			t.Fatalf("allocation %d is not zeroed: %+v", i, *p)
		}
		*p = node{id: -1, next: p, pad: [3]uint64{1, 2, 3}}
	}
}

func TestChunkSizesGrowThenCap(t *testing.T) {
	var a Arena[int]
	want := 1 << minChunkShift
	for chunks := 0; chunks < maxChunkShift-minChunkShift+3; chunks++ {
		a.New()
		if cap(a.cur) != want {
			t.Fatalf("chunk %d holds %d objects, want %d", chunks, cap(a.cur), want)
		}
		for len(a.cur) < cap(a.cur) {
			a.New()
		}
		if want < 1<<maxChunkShift {
			want *= 2
		}
	}
}
