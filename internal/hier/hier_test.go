package hier

import (
	"testing"

	"chameleon/internal/config"
)

// threeLevels is a small private/private/shared stack with the seed's
// latencies (4, 12, 38) and one 64 B line per L1/L2 set, so evictions
// are easy to force.
func threeLevels() []config.CacheLevelConfig {
	return []config.CacheLevelConfig{
		{Name: "L1", SizeBytes: 64, Ways: 1, LineBytes: 64, LatencyCycles: 4},
		{Name: "L2", SizeBytes: 64, Ways: 1, LineBytes: 64, LatencyCycles: 12},
		{Name: "L3", SizeBytes: 128, Ways: 1, LineBytes: 64, LatencyCycles: 38, Shared: true},
	}
}

func TestNewValidates(t *testing.T) {
	if _, err := New(nil, 1); err == nil {
		t.Error("empty level list accepted")
	}
	if _, err := New(threeLevels(), 0); err == nil {
		t.Error("zero cores accepted")
	}
	bad := threeLevels()
	bad[2].LatencyCycles = 1 // below L2's 12
	if _, err := New(bad, 1); err == nil {
		t.Error("decreasing latency accepted")
	}
	bad = threeLevels()
	bad[1].Ways = 0
	if _, err := New(bad, 1); err == nil {
		t.Error("invalid cache geometry accepted")
	}
}

// TestLatencyDeltas: the walk charges the cumulative configured latency
// down to the level that hits — except the first level, whose latency
// hides under the core model — and the full LLC latency on a miss. The
// geometry widens per level (1/2/4 sets) so each level can hold lines
// the one above it evicted.
func TestLatencyDeltas(t *testing.T) {
	h, err := New([]config.CacheLevelConfig{
		{Name: "L1", SizeBytes: 64, Ways: 1, LineBytes: 64, LatencyCycles: 4},
		{Name: "L2", SizeBytes: 128, Ways: 1, LineBytes: 64, LatencyCycles: 12},
		{Name: "L3", SizeBytes: 256, Ways: 1, LineBytes: 64, LatencyCycles: 38, Shared: true},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Cold miss walks every level: stall = L3's cumulative 38.
	stall, miss, _ := h.Access(0, 0, false, 0)
	if stall != 38 || !miss {
		t.Errorf("cold miss: stall %d miss %v, want 38 true", stall, miss)
	}
	// Now resident everywhere; an L1 hit costs nothing.
	stall, miss, _ = h.Access(0, 0, false, 10)
	if stall != 0 || miss {
		t.Errorf("L1 hit: stall %d miss %v, want 0 false", stall, miss)
	}
	// Line 64 evicts 0 from the single-set L1 but lands in L2/L3's other
	// sets, leaving their copies of line 0 in place.
	if _, miss, _ := h.Access(0, 64, false, 20); !miss {
		t.Error("expected cold miss on line 64")
	}
	// Line 0 misses L1, hits L2: the full L2 latency is charged, not a
	// delta over L1's hidden 4 cycles.
	stall, miss, _ = h.Access(0, 0, false, 30)
	if stall != 12 || miss {
		t.Errorf("L2 hit: stall %d miss %v, want 12 false", stall, miss)
	}
	// Line 128 aliases line 0 in L1 and L2 but sits in L3 set 2, so after
	// it passes through, line 0 survives only in the LLC.
	if _, miss, _ := h.Access(0, 128, false, 40); !miss {
		t.Error("expected cold miss on line 128")
	}
	stall, miss, _ = h.Access(0, 0, false, 50)
	if stall != 38 || miss {
		t.Errorf("L3 hit: stall %d miss %v, want 38 false", stall, miss)
	}
}

// TestFirstLevelDeltaIsZero: New charges nothing before probing level
// 0, whatever its configured latency and whether it is private or
// shared — the simulator retires a First(core) hit with no stall on
// that guarantee. First returns the core's own level-0 cache when the
// level is private and nil when it is shared.
func TestFirstLevelDeltaIsZero(t *testing.T) {
	for _, lat0 := range []uint64{0, 1, 4, 12, 1000} {
		for depth := 1; depth <= 3; depth++ {
			for _, shared0 := range []bool{false, true} {
				levels := threeLevels()[:depth]
				levels[0].LatencyCycles = lat0
				for i := 1; i < depth; i++ {
					levels[i].LatencyCycles = lat0 + uint64(i)*10
				}
				levels[0].Shared = shared0
				h, err := New(levels, 3)
				if err != nil {
					t.Fatal(err)
				}
				if d := h.levels[0].delta; d != 0 {
					t.Errorf("lat0 %d depth %d shared %v: level 0 delta %d, want 0", lat0, depth, shared0, d)
				}
				for core := range 3 {
					got := h.First(core)
					if shared0 && got != nil {
						t.Errorf("depth %d: First(%d) of a shared level 0 = %v, want nil", depth, core, got)
					}
					if !shared0 && got != h.levels[0].caches[core] {
						t.Errorf("depth %d: First(%d) is not the core's own level-0 cache", depth, core)
					}
				}
				if shared0 {
					continue
				}
				// A level-0 hit through the whole walk costs nothing either.
				h.Access(0, 0, false, 0)
				if stall, miss, _ := h.Access(0, 0, false, 1); stall != 0 || miss {
					t.Errorf("lat0 %d depth %d: level-0 hit stall %d miss %v, want 0 false", lat0, depth, stall, miss)
				}
			}
		}
	}
}

// TestPrivateVsShared: private levels isolate cores; a shared LLC is
// one cache they all hit.
func TestPrivateVsShared(t *testing.T) {
	h, err := New(threeLevels(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, miss, _ := h.Access(0, 0, false, 0); !miss {
		t.Error("cold miss expected for core 0")
	}
	// Core 1's private L1/L2 are cold, but the shared LLC has the line.
	stall, miss, _ := h.Access(1, 0, false, 0)
	if miss || stall != 38 {
		t.Errorf("core 1: stall %d miss %v, want LLC hit at 38", stall, miss)
	}
	if h.levels[0].cache(0) == h.levels[0].cache(1) {
		t.Error("private level shared between cores")
	}
	if h.levels[2].cache(0) != h.levels[2].cache(1) {
		t.Error("shared level not shared")
	}
}

// TestWritebackCascadeIsFreeOfCoreTime pins the writeback model the
// package documents: dirty-victim cascades — all the way to a spill
// past the LLC — charge the core NOTHING beyond the plain walk latency.
// The spilled victims reach the caller stamped with the walk time at
// which they left the stack, so the memory system still pays occupancy.
func TestWritebackCascadeIsFreeOfCoreTime(t *testing.T) {
	h, err := New(threeLevels(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Dirty the line everywhere reachable, then evict it repeatedly.
	if stall, _, v := h.Access(0, 0, true, 100); stall != 38 || len(v) != 0 {
		t.Fatalf("cold write: stall %d victims %d", stall, len(v))
	}
	// Write line 64: L1 evicts dirty 0 (absorbed by L2's copy), L2
	// evicts dirty 0 (absorbed by L3's copy), L3 fills 64 into its
	// second set. No spill yet; stall is the plain miss latency.
	stall, miss, victims := h.Access(0, 64, true, 200)
	if stall != 38 || !miss || len(victims) != 0 {
		t.Fatalf("second write: stall %d miss %v victims %d, want 38 true 0", stall, miss, len(victims))
	}
	// Write line 128: it aliases line 0 in every level, so the dirty
	// line 0 is finally pushed out of the LLC to memory. The stall must
	// STILL be exactly 38 — the cascade and the memory writeback are
	// free in core time — and the victim carries the walk time the LLC
	// evicted it (now + 38).
	stall, miss, victims = h.Access(0, 128, true, 300)
	if stall != 38 || !miss {
		t.Errorf("cascading write: stall %d miss %v, want 38 true (writebacks charge no core time)", stall, miss)
	}
	if len(victims) != 1 || victims[0].Addr != 0 || victims[0].Now != 338 {
		t.Errorf("victims = %+v, want [{Addr:0 Now:338}]", victims)
	}
}

// TestSingleLevelSpill: a one-level hierarchy spills straight to
// memory, with zero stall (the first level's latency is hidden) and the
// victim stamped at the access time itself.
func TestSingleLevelSpill(t *testing.T) {
	h, err := New([]config.CacheLevelConfig{
		{Name: "LLC", SizeBytes: 64, Ways: 1, LineBytes: 64, LatencyCycles: 7},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stall, _, v := h.Access(0, 0, true, 10); stall != 0 || len(v) != 0 {
		t.Fatalf("cold write: stall %d victims %d, want 0 0", stall, len(v))
	}
	stall, miss, victims := h.Access(0, 64, false, 20)
	if stall != 0 || !miss {
		t.Errorf("conflict read: stall %d miss %v, want 0 true", stall, miss)
	}
	if len(victims) != 1 || victims[0].Addr != 0 || victims[0].Now != 20 {
		t.Errorf("victims = %+v, want [{Addr:0 Now:20}]", victims)
	}
}

// TestStatsAggregation: LevelStats sums private instances across cores.
func TestStatsAggregation(t *testing.T) {
	h, err := New(threeLevels(), 2)
	if err != nil {
		t.Fatal(err)
	}
	h.Access(0, 0, false, 0)
	h.Access(1, 0, false, 0)
	l1 := h.LevelStats(0)
	if l1.Accesses != 2 || l1.Misses != 2 {
		t.Errorf("L1 aggregate = %+v, want 2 accesses 2 misses", l1)
	}
	llc := h.LevelStats(2)
	if llc.Accesses != 2 || llc.Hits != 1 || llc.Misses != 1 {
		t.Errorf("LLC aggregate = %+v, want 2 accesses 1 hit 1 miss", llc)
	}
	h.ResetStats()
	if s := h.LevelStats(0); s != (h.LevelStats(1)) || s.Accesses != 0 {
		t.Errorf("ResetStats left counters: %+v", s)
	}
}

// TestAccessDoesNotAllocate: the walk must stay allocation-free once
// the victim scratch buffer has grown (the hot path of every simulated
// reference).
func TestAccessDoesNotAllocate(t *testing.T) {
	h, err := New(threeLevels(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the scratch buffer with a spilling access pattern.
	for i := uint64(0); i < 16; i++ {
		h.Access(0, i*64, true, i)
	}
	var n uint64
	got := testing.AllocsPerRun(200, func() {
		h.Access(0, n*64%1024, true, n)
		n++
	})
	if got != 0 {
		t.Errorf("Access allocates %v times per call, want 0", got)
	}
}

// TestSplitWalkEquivalence: driving one hierarchy through the
// monolithic Access and a twin through the explicit
// AccessPrivate → AccessShared split (the run-ahead engine's usage,
// skipping the shared phase when a private hit produced no deferred
// ops) must agree step for step — stall, llcMiss, every victim — and
// leave identical per-level statistics. Single-line sets make dirty
// cascades constant, so the deferred-op ordering is exercised hard.
func TestSplitWalkEquivalence(t *testing.T) {
	const cores = 3
	mono, err := New(threeLevels(), cores)
	if err != nil {
		t.Fatal(err)
	}
	split, err := New(threeLevels(), cores)
	if err != nil {
		t.Fatal(err)
	}
	if split.PrivateLevels() != 2 {
		t.Fatalf("PrivateLevels = %d, want 2", split.PrivateLevels())
	}
	ops := make([]SharedOp, 0, split.MaxOpsPerWalk())
	var lcg uint64 = 99
	for step := 0; step < 20000; step++ {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		core := int(lcg>>33) % cores
		addr := ((lcg >> 17) % 2048) &^ 63 // 32 lines: heavy conflict traffic
		write := lcg>>62 == 0
		now := uint64(step) * 3

		wantStall, wantMiss, wantVictims := mono.Access(core, addr, write, now)

		var hit bool
		var stall uint64
		stall, hit, ops = split.AccessPrivate(core, addr, write, now, ops[:0])
		var miss bool
		var victims []Victim
		if hit && len(ops) == 0 {
			miss, victims = false, nil
		} else {
			stall, miss, victims = split.AccessShared(core, write, ops, stall, now)
		}

		if stall != wantStall || miss != wantMiss || len(victims) != len(wantVictims) {
			t.Fatalf("step %d: split (stall %d miss %v victims %d) != mono (stall %d miss %v victims %d)",
				step, stall, miss, len(victims), wantStall, wantMiss, len(wantVictims))
		}
		for i := range victims {
			if victims[i] != wantVictims[i] {
				t.Fatalf("step %d victim %d: split %+v != mono %+v", step, i, victims[i], wantVictims[i])
			}
		}
	}
	for i := 0; i < mono.NumLevels(); i++ {
		if mono.LevelStats(i) != split.LevelStats(i) {
			t.Errorf("level %d stats diverged: mono %+v split %+v", i, mono.LevelStats(i), split.LevelStats(i))
		}
	}
}

// BenchmarkHierarchy measures the raw pipelined walk on the default
// three-level stack: a write-heavy strided sweep with a hot subset, so
// hits, misses and dirty cascades all appear. The per-access cost here
// is the budget the composable pipeline must hold against the inlined
// walk it replaced (see BenchmarkStep in internal/sim for the
// end-to-end gate).
func BenchmarkHierarchy(b *testing.B) {
	levels := config.Default(512).CacheLevels
	const cores = 12
	h, err := New(levels, cores)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var lcg uint64 = 1
	for i := 0; i < b.N; i++ {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		addr := (lcg >> 20) % (64 << 20) // 64 MB span: misses dominate
		if i%4 == 0 {
			addr %= 16 << 10 // hot 16 KB: L1 hits
		}
		h.Access(i%cores, addr&^63, i%3 == 0, uint64(i))
	}
}
