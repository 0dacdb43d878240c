package sim

// coreHeap is a binary min-heap of runnable core indices ordered by
// (key, id), where key aliases the struct-of-arrays commit-key slice
// (coreSoA.key: the pre-step clock of each core's parked event). The id
// tie-break makes the minimum unique, so heap selection is identical to
// a first-strictly-smaller linear scan over the cores (pinned by
// TestCoreHeapMatchesLinearScan).
//
// Only the scheduled core's key ever advances, so the heap needs no
// general decrease-key: after a commit either the root sifts down (fix)
// or, when the core exhausts its budget, it is popped. The index
// storage is supplied by the caller (System.heapIdx) and reused across
// execute passes, keeping the scheduler allocation-free.
type coreHeap struct {
	key []uint64 // aliases coreSoA.key; never written by the heap
	idx []int32
}

// newCoreHeap builds a heap over cores 0..len(key)-1. storage is
// reused as the index backing array; pass nil to allocate fresh (tests).
func newCoreHeap(key []uint64, storage []int32) coreHeap {
	h := coreHeap{key: key, idx: storage[:0]}
	for i := range key {
		h.idx = append(h.idx, int32(i))
	}
	for i := len(h.idx)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
	return h
}

func (h *coreHeap) len() int { return len(h.idx) }

// peek returns the core index with the smallest (key, id) without
// removing it.
func (h *coreHeap) peek() int32 { return h.idx[0] }

// fix restores heap order after the root core's key advanced.
func (h *coreHeap) fix() { h.siftDown(0) }

// pop removes the root core (it finished its instruction budget).
func (h *coreHeap) pop() {
	n := len(h.idx) - 1
	h.idx[0] = h.idx[n]
	h.idx = h.idx[:n]
	if n > 1 {
		h.siftDown(0)
	}
}

// less orders cores by (key, id): the global commit order of the
// simulator's steps.
func (h *coreHeap) less(a, b int32) bool {
	return h.key[a] < h.key[b] || (h.key[a] == h.key[b] && a < b)
}

func (h *coreHeap) siftDown(i int) {
	n := len(h.idx)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h.less(h.idx[r], h.idx[l]) {
			m = r
		}
		if !h.less(h.idx[m], h.idx[i]) {
			return
		}
		h.idx[i], h.idx[m] = h.idx[m], h.idx[i]
		i = m
	}
}
