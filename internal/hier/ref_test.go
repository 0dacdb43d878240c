package hier

import (
	"fmt"
	"slices"
	"testing"

	"chameleon/internal/cache"
	"chameleon/internal/config"
)

// refWalk is the hand-written L1→L2→L3 walk the simulator ran before
// this package existed, kept as a differential oracle for Access and
// for the split walk. It owns its own cache instances — L1 and L2 per
// core, one shared L3 — so it assumes the private/private/shared
// three-level shape.
type refWalk struct {
	l1, l2     []*cache.Cache
	l3         *cache.Cache
	lat2, lat3 uint64 // cumulative L2 and L3 hit latencies
	victims    []Victim
	// The private-prefix view of the last access, as AccessPrivate must
	// report it: the stall before L3, whether L1 or L2 hit, and every L3
	// access in walk order as a SharedOp (victim cascades with their
	// issue time, then the demand continuation).
	privStall uint64
	privHit   bool
	ops       []SharedOp
}

func newRefWalk(t testing.TB, levels []config.CacheLevelConfig, cores int) *refWalk {
	t.Helper()
	if len(levels) != 3 || levels[0].Shared || levels[1].Shared || !levels[2].Shared {
		t.Fatalf("refWalk needs a private/private/shared stack, got %+v", levels)
	}
	mk := func(lc config.CacheLevelConfig) *cache.Cache {
		c, err := cache.New(lc.Name, lc.SizeBytes, lc.Ways, lc.LineBytes)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	r := &refWalk{lat2: levels[1].LatencyCycles, lat3: levels[2].LatencyCycles, l3: mk(levels[2])}
	for range cores {
		r.l1 = append(r.l1, mk(levels[0]))
		r.l2 = append(r.l2, mk(levels[1]))
	}
	return r
}

// l3Victim writes a dirty victim into L3 at time at, recording the op
// and any dirty line it pushes out to memory.
func (r *refWalk) l3Victim(addr, at uint64) {
	r.ops = append(r.ops, SharedOp{Addr: addr, At: at})
	if h3, v3, hv3 := r.l3.Access(addr, true); !h3 && hv3 && v3.Dirty {
		r.victims = append(r.victims, Victim{Addr: v3.Addr, Now: at})
	}
}

// access has Access's signature and contract: the L1 latency hides
// under the core model, a dirty victim cascades down as a write, and a
// dirty line leaving L3 is returned stamped with the walk time of the
// level whose eviction started the cascade.
func (r *refWalk) access(core int, p uint64, write bool, now uint64) (stall uint64, llcMiss bool, victims []Victim) {
	l1, l2, l3 := r.l1[core], r.l2[core], r.l3
	r.victims, r.ops = r.victims[:0], r.ops[:0]
	r.privStall, r.privHit = 0, true
	if hit, v, hv := l1.Access(p, write); hit {
		return 0, false, r.victims
	} else if hv && v.Dirty {
		if h2, v2, hv2 := l2.Access(v.Addr, true); !h2 && hv2 && v2.Dirty {
			r.l3Victim(v2.Addr, now)
		}
	}
	stall = r.lat2
	r.privStall = stall
	if hit, v, hv := l2.Access(p, false); hit {
		return stall, false, r.victims
	} else if hv && v.Dirty {
		r.l3Victim(v.Addr, now+stall)
	}
	r.privHit = false
	r.ops = append(r.ops, SharedOp{Addr: p, Demand: true})
	stall = r.lat3
	if hit, v, hv := l3.Access(p, false); hit {
		return stall, false, r.victims
	} else if hv && v.Dirty {
		r.victims = append(r.victims, Victim{Addr: v.Addr, Now: now + stall})
	}
	return stall, true, r.victims
}

// levelStats sums level i's statistics across cores, like LevelStats.
func (r *refWalk) levelStats(i int) cache.Stats {
	caches := []*cache.Cache{r.l3}
	switch i {
	case 0:
		caches = r.l1
	case 1:
		caches = r.l2
	}
	var sum cache.Stats
	for _, c := range caches {
		s := c.Stats()
		sum.Accesses += s.Accesses
		sum.Hits += s.Hits
		sum.Misses += s.Misses
		sum.Writebacks += s.Writebacks
	}
	return sum
}

// walkOp is one reference of a differential run.
type walkOp struct {
	core  int
	addr  uint64
	write bool
	now   uint64
}

// splitAccess walks one reference the way the simulator's step loop
// does: a probe of First(core), on a miss the MissPrivate continuation,
// and AccessShared only when the private walk left shared ops. It also
// returns the private prefix's stall, hit flag and ops.
func splitAccess(h *Hierarchy, core int, p uint64, write bool, now uint64) (privStall uint64, privHit bool, ops []SharedOp, stall uint64, llcMiss bool, victims []Victim) {
	hit, v, hv := h.First(core).Access(p, write)
	if !hit {
		privStall, hit, ops = h.MissPrivate(core, p, now, v, hv, h.ops[:0])
		h.ops = ops
	}
	if hit && len(ops) == 0 {
		return privStall, true, nil, privStall, false, nil
	}
	stall, llcMiss, victims = h.AccessShared(core, write, ops, privStall, now)
	return privStall, hit, ops, stall, llcMiss, victims
}

// diffWalk drives two Hierarchies — one through Access, one through the
// split walk (splitAccess) — and the reference walk through ops. It
// fails on the first access whose stall, LLC miss or spilled victims
// differ, whose split private prefix (stall, hit flag, shared ops)
// differs from the reference's, or on any level's final statistics
// differing.
func diffWalk(t *testing.T, levels []config.CacheLevelConfig, cores int, ops []walkOp) {
	t.Helper()
	h, err := New(levels, cores)
	if err != nil {
		t.Fatal(err)
	}
	split, err := New(levels, cores)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefWalk(t, levels, cores)
	for n, op := range ops {
		wStall, wMiss, wVictims := ref.access(op.core, op.addr, op.write, op.now)
		stall, miss, victims := h.Access(op.core, op.addr, op.write, op.now)
		if stall != wStall || miss != wMiss || !slices.Equal(victims, wVictims) {
			t.Fatalf("access %d %+v: hier (stall %d miss %v victims %v) != reference (stall %d miss %v victims %v)",
				n, op, stall, miss, victims, wStall, wMiss, wVictims)
		}
		pStall, pHit, pOps, stall, miss, victims := splitAccess(split, op.core, op.addr, op.write, op.now)
		if pStall != ref.privStall || pHit != ref.privHit || !slices.Equal(pOps, ref.ops) {
			t.Fatalf("access %d %+v: split private walk (stall %d hit %v ops %+v) != reference (stall %d hit %v ops %+v)",
				n, op, pStall, pHit, pOps, ref.privStall, ref.privHit, ref.ops)
		}
		if stall != wStall || miss != wMiss || !slices.Equal(victims, wVictims) {
			t.Fatalf("access %d %+v: split walk (stall %d miss %v victims %v) != reference (stall %d miss %v victims %v)",
				n, op, stall, miss, victims, wStall, wMiss, wVictims)
		}
	}
	for i := 0; i < h.NumLevels(); i++ {
		want := ref.levelStats(i)
		if got := h.LevelStats(i); got != want {
			t.Errorf("level %s stats: hier %+v != reference %+v", h.LevelName(i), got, want)
		}
		if got := split.LevelStats(i); got != want {
			t.Errorf("level %s stats: split walk %+v != reference %+v", h.LevelName(i), got, want)
		}
	}
}

// refShapes are the stacks the oracle covers: the paper's default
// hierarchy and the tiny single-line-set stack whose every access
// conflicts.
var refShapes = []struct {
	name   string
	levels func() []config.CacheLevelConfig
}{
	{"default", func() []config.CacheLevelConfig { return config.Default(512).CacheLevels }},
	{"tiny", threeLevels},
}

// refOpAddr maps a (tag, set) pair onto a line address that stays in
// four sets of every level of either shape, so tags compete for ways
// and dirty lines cascade down to memory.
func refOpAddr(tag, set uint64) uint64 { return (tag<<8 | set&3) * 64 }

// TestHierarchyMatchesReference: a seeded stream of reads and writes,
// write-heavy and concentrated on a few sets, must walk identically
// through Access, the split walk and the reference walk on 1 and 4
// cores.
func TestHierarchyMatchesReference(t *testing.T) {
	for _, shape := range refShapes {
		for _, cores := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/cores%d", shape.name, cores), func(t *testing.T) {
				var lcg uint64 = 7
				var now uint64
				ops := make([]walkOp, 50_000)
				for i := range ops {
					lcg = lcg*6364136223846793005 + 1442695040888963407
					now += lcg >> 61
					ops[i] = walkOp{
						core:  int(lcg>>40) % cores,
						addr:  refOpAddr(lcg>>20%300, lcg>>12),
						write: lcg>>59&3 == 0,
						now:   now,
					}
				}
				diffWalk(t, shape.levels(), cores, ops)
			})
		}
	}
}

// FuzzHierarchyAgainstInline: byte 0 picks the shape (bit 0) and 1 or
// 4 cores (bit 1); every further 3 bytes are one access — core, write
// bit and clock advance from the first, the tag from the second, the
// set from the third. Each access goes through Access and through the
// split walk (First, MissPrivate, AccessShared), both checked against
// the reference walk.
func FuzzHierarchyAgainstInline(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 1, 1, 0, 2, 2, 0})
	f.Add([]byte{1, 5, 0, 0, 5, 1, 0, 5, 2, 0, 4, 0, 0})
	f.Add([]byte{3, 0x0d, 9, 1, 0x1e, 9, 2, 0x2f, 9, 3, 0x3c, 10, 1, 0x07, 11, 0})
	// Writes to one set of the tiny stack: every fill evicts a dirty line
	// that cascades through L2 and L3 to memory.
	f.Add([]byte{1, 0x0c, 0, 0, 0x0c, 1, 0, 0x0c, 2, 0, 0x0c, 3, 0, 0x0c, 0, 0, 0x0c, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		shape := refShapes[data[0]&1]
		cores := 1
		if data[0]&2 != 0 {
			cores = 4
		}
		var ops []walkOp
		var now uint64
		for p := 1; p+3 <= len(data); p += 3 {
			b := data[p]
			now += uint64(b >> 3)
			ops = append(ops, walkOp{
				core:  int(b&3) % cores,
				addr:  refOpAddr(uint64(data[p+1]), uint64(data[p+2])),
				write: b&4 != 0,
				now:   now,
			})
		}
		diffWalk(t, shape.levels(), cores, ops)
	})
}
