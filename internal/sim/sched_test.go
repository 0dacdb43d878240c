package sim

import (
	"testing"

	"chameleon/internal/rng"
)

// linearMin is the O(cores) scheduler the heap replaced, kept as an
// oracle: the first core in id order whose clock is strictly smallest
// among the cores not done, or -1 when every core is done.
func linearMin(time []uint64, done []bool) int32 {
	next := int32(-1)
	for i := range time {
		if done[i] {
			continue
		}
		if next < 0 || time[i] < time[next] {
			next = int32(i)
		}
	}
	return next
}

// TestCoreHeapMatchesLinearScan drives heaps over 1 to 64 cores whose
// clocks start in a narrow range, so equal clocks are everywhere: each
// step either advances the selected core by a random amount (zero
// included) and fixes the heap, or pops it. At every step peek must
// name the core the linear scan picks.
func TestCoreHeapMatchesLinearScan(t *testing.T) {
	r := rng.New(17)
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.Intn(64)
		times := make([]uint64, n)
		for i := range times {
			times[i] = uint64(r.Intn(4))
		}
		done := make([]bool, n)
		h := newCoreHeap(times, nil)
		for step := 0; h.len() > 0; step++ {
			got, want := h.peek(), linearMin(times, done)
			if got != want {
				t.Fatalf("trial %d (%d cores) step %d: heap picked core %d (time %d), linear scan core %d (time %d)",
					trial, n, step, got, times[got], want, times[want])
			}
			if r.Intn(8) == 0 {
				done[got] = true
				h.pop()
			} else {
				times[got] += uint64(r.Intn(3))
				h.fix()
			}
		}
		if left := linearMin(times, done); left != -1 {
			t.Fatalf("trial %d: heap drained with core %d still runnable", trial, left)
		}
	}
}

// TestCoreHeapOrder drains a heap built from shuffled clocks and checks
// it yields (time, id) order.
func TestCoreHeapOrder(t *testing.T) {
	times := []uint64{90, 10, 50, 10, 70, 30, 50, 20}
	h := newCoreHeap(times, nil)
	type popped struct {
		id   int32
		time uint64
	}
	var got []popped
	for h.len() > 0 {
		i := h.peek()
		got = append(got, popped{id: i, time: times[i]})
		h.pop()
	}
	if len(got) != len(times) {
		t.Fatalf("drained %d cores, want %d", len(got), len(times))
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if b.time < a.time || (b.time == a.time && b.id < a.id) {
			t.Errorf("pop %d (time %d, id %d) out of order after (time %d, id %d)",
				i, b.time, b.id, a.time, a.id)
		}
	}
	if got[0].id != 1 || got[1].id != 3 {
		t.Errorf("equal clocks must drain in id order, got ids %d, %d", got[0].id, got[1].id)
	}
}

// TestCoreHeapFix advances the root repeatedly (the execute pattern)
// and checks the heap keeps selecting the global minimum.
func TestCoreHeapFix(t *testing.T) {
	times := make([]uint64, 5)
	for i := range times {
		times[i] = uint64(i)
	}
	h := newCoreHeap(times, nil)
	lastID := int32(-1)
	var lastTime uint64
	for step := 0; step < 200; step++ {
		i := h.peek()
		tm := times[i]
		if lastID >= 0 && (tm < lastTime || (tm == lastTime && i < lastID)) {
			t.Fatalf("step %d: selected (time %d, id %d) before previous (time %d, id %d)",
				step, tm, i, lastTime, lastID)
		}
		lastID, lastTime = i, tm
		times[i] += uint64(7+3*i) % 11
		h.fix()
	}
}
