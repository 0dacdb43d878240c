// Package hier implements the composable cache-hierarchy pipeline: an
// ordered stack of set-associative levels built from configuration,
// with one entry point that owns the walk, the latency accounting and
// the cascaded dirty-victim writebacks. On the paper's private/private/
// shared three-level shape it is checked access by access against a
// hand-written L1→L2→L3 walk (ref_test.go).
//
// # Level model
//
// A Hierarchy is constructed from []config.CacheLevelConfig, ordered
// from the core outward. Each level is either private (one cache
// instance per core) or shared (a single instance all cores hit).
// LatencyCycles is the cumulative hit latency from the core; the walk
// charges the delta over the previous level before probing each level,
// and the first level's latency is never charged — it is assumed hidden
// by the core model's BaseCPI. The deltas are hoisted at construction
// so Access performs no per-level arithmetic beyond one addition.
//
// # Split walk
//
// Access is the composition of two phases. AccessPrivate walks the
// core-private prefix and records what the shared levels still owe as
// SharedOps; AccessShared replays them. AccessPrivate is itself a probe
// of First(core), the core's first-level cache, and on a miss the
// MissPrivate continuation, which takes the probe's victim and walks
// the remaining private levels. Because level 0's delta is always 0, a
// first-level hit is a complete walk, and a caller that makes the probe
// itself (the simulator's step loop) pays one cache access per hit.
// Each phase has one implementation, and ref_test.go checks the probe
// plus continuation against the hand-written walk reference by
// reference.
//
// # Writeback semantics
//
// A miss that evicts a dirty line cascades the victim into the next
// level down as a write, repeating while the fills keep evicting dirty
// lines; a dirty victim leaving the last level is returned to the
// caller (stamped with the walk time at which it spilled) for the
// memory system to absorb. Writebacks are modelled as FREE in core
// time: evictions are off the load's critical path and are absorbed by
// write buffers in real hardware, so no stall cycles are charged for
// the cascade — but the spilled victims still reach the memory
// controller, where they reserve bank and bus occupancy and so degrade
// demand-access latency under bandwidth pressure. That occupancy-only
// model is pinned by TestWritebackCascadeIsFreeOfCoreTime.
package hier

import (
	"fmt"

	"chameleon/internal/cache"
	"chameleon/internal/config"
)

// Victim is a dirty line that spilled out of the last cache level and
// must be written back to memory.
type Victim struct {
	// Addr is the base address of the spilled line.
	Addr uint64
	// Now is the core-local time at which the writeback issues: the
	// walk time accumulated up to the level whose eviction started the
	// cascade.
	Now uint64
}

// level is one constructed hierarchy level.
type level struct {
	name   string
	delta  uint64 // latency charged before probing this level, hoisted
	shared bool
	caches []*cache.Cache // one entry when shared, else one per core
}

func (l *level) cache(core int) *cache.Cache {
	if l.shared {
		return l.caches[0]
	}
	return l.caches[core]
}

// SharedOp is one deferred shared-phase interaction produced by a
// private-prefix walk (AccessPrivate): either a dirty-victim cascade
// entering the first shared level, or the demand reference continuing
// past the private levels. Ops are recorded in walk order and must be
// replayed in that order by AccessShared for the split walk to be
// bit-identical to Access.
type SharedOp struct {
	// Addr is the cascading victim's address, or the demand physical
	// address when Demand is set.
	Addr uint64
	// At is the absolute time the victim cascade issues (the walk time
	// at the private level whose eviction started it). Unused for the
	// demand op, whose latency accounting continues from the private
	// stall.
	At uint64
	// Demand marks the demand-reference continuation; it is always the
	// last op of a walk, if present.
	Demand bool
}

// Hierarchy is a constructed cache stack for a fixed set of cores. It
// is not safe for concurrent use as a whole: the simulator advances one
// core at a time, and the victim buffer returned by Access is reused.
// The split walk (AccessPrivate/AccessShared) lets the simulator walk a
// core's private levels ahead of other cores' shared phases.
type Hierarchy struct {
	levels  []level
	victims []Victim // scratch reused across Access/AccessShared calls
	ops     []SharedOp
	// firstShared is the index of the first shared level: levels before
	// it are the core-private prefix AccessPrivate walks, levels from it
	// on (even private ones in unusual configurations) belong to the
	// shared phase. Equal to len(levels) when every level is private.
	firstShared int
}

// New builds the hierarchy for the given core count. Private levels get
// one cache instance per core; shared levels one in total.
func New(levels []config.CacheLevelConfig, cores int) (*Hierarchy, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("hier: at least one cache level is required")
	}
	if cores <= 0 {
		return nil, fmt.Errorf("hier: core count must be positive, got %d", cores)
	}
	h := &Hierarchy{levels: make([]level, len(levels))}
	var prev uint64
	for i, lc := range levels {
		// delta[0] = 0 (the first level's latency hides under BaseCPI),
		// delta[1] = lat[1], delta[i] = lat[i] - lat[i-1] beyond.
		var delta uint64
		if i > 0 {
			if lc.LatencyCycles < prev {
				return nil, fmt.Errorf("hier: level %s latency %d below the previous level's %d",
					lc.Name, lc.LatencyCycles, prev)
			}
			delta = lc.LatencyCycles - prev
			if i == 1 {
				delta = lc.LatencyCycles
			}
		}
		n := cores
		if lc.Shared {
			n = 1
		}
		caches := make([]*cache.Cache, n)
		for j := range caches {
			c, err := cache.New(lc.Name, lc.SizeBytes, lc.Ways, lc.LineBytes)
			if err != nil {
				return nil, fmt.Errorf("hier: %w", err)
			}
			caches[j] = c
		}
		h.levels[i] = level{name: lc.Name, delta: delta, shared: lc.Shared, caches: caches}
		prev = lc.LatencyCycles
	}
	h.firstShared = len(h.levels)
	for i := range h.levels {
		if h.levels[i].shared {
			h.firstShared = i
			break
		}
	}
	return h, nil
}

// PrivateLevels returns the length of the core-private prefix: the
// number of leading levels before the first shared one. AccessPrivate
// walks exactly these levels.
func (h *Hierarchy) PrivateLevels() int { return h.firstShared }

// MaxOpsPerWalk bounds how many SharedOps one AccessPrivate call can
// append: one victim cascade per private level plus the demand
// continuation. Callers size their reusable op buffers with it.
func (h *Hierarchy) MaxOpsPerWalk() int { return h.firstShared + 1 }

// Access walks the hierarchy for one reference by core to phys at local
// time now. It returns the stall cycles the walk adds to the core clock
// (the cumulative latency down to the hit level, or to the LLC on a
// full miss), whether the reference missed every level, and the dirty
// victims that spilled past the last level. The victims slice is reused
// by the next Access call; consume it before walking again.
func (h *Hierarchy) Access(core int, phys uint64, write bool, now uint64) (stall uint64, llcMiss bool, victims []Victim) {
	var hit bool
	stall, hit, h.ops = h.AccessPrivate(core, phys, write, now, h.ops[:0])
	if hit && len(h.ops) == 0 {
		h.victims = h.victims[:0]
		return stall, false, h.victims
	}
	return h.AccessShared(core, write, h.ops, stall, now)
}

// AccessPrivate walks the core-private prefix (levels before the first
// shared one) for one reference. It returns the stall accrued so far,
// whether the demand reference hit in a private level, and ops extended
// with the walk's deferred shared-phase interactions (dirty-victim
// cascades that crossed into the shared levels, then — on a full
// private miss — the demand continuation). A hit with no ops means the
// step never touches shared state. ops entries alias no hierarchy
// storage; distinct cores may walk their private prefixes concurrently
// provided each passes its own buffer.
//
// It is the composition of a probe of First(core) and, on a miss,
// MissPrivate; the simulator's step loop makes the probe itself so that
// a first-level hit costs one cache access and no walk.
func (h *Hierarchy) AccessPrivate(core int, phys uint64, write bool, now uint64, ops []SharedOp) (stall uint64, hit bool, out []SharedOp) {
	l1 := h.First(core)
	if l1 == nil {
		return 0, false, append(ops, SharedOp{Addr: phys, Demand: true})
	}
	hit, v, hv := l1.Access(phys, write)
	if hit {
		return 0, true, ops
	}
	return h.MissPrivate(core, phys, now, v, hv, ops)
}

// First returns core's first-level cache when the first level is
// private, else nil. A hit there is a whole private walk: the first
// level's delta is 0 (see New) and a hit evicts nothing.
func (h *Hierarchy) First(core int) *cache.Cache {
	if h.firstShared == 0 {
		return nil
	}
	return h.levels[0].caches[core]
}

// MissPrivate continues a private walk whose demand reference to phys
// missed First(core), given the victim that probe returned: it cascades
// a dirty victim, then walks the remaining private levels exactly as
// AccessPrivate does, with the same results. Only the first level sees
// the reference's write flag, so the continuation needs none.
func (h *Hierarchy) MissPrivate(core int, phys, now uint64, victim cache.Victim, hasVictim bool, ops []SharedOp) (stall uint64, hit bool, out []SharedOp) {
	if hasVictim && victim.Dirty {
		ops = h.spillPrivate(core, victim.Addr, 1, now, ops)
	}
	for i := 1; i < h.firstShared; i++ {
		lv := &h.levels[i]
		stall += lv.delta
		hit, v, hv := lv.caches[core].Access(phys, false)
		if hit {
			return stall, true, ops
		}
		if hv && v.Dirty {
			ops = h.spillPrivate(core, v.Addr, i+1, now+stall, ops)
		}
	}
	return stall, false, append(ops, SharedOp{Addr: phys, Demand: true})
}

// spillPrivate cascades a dirty victim through the remaining private
// levels; a victim surviving past the private prefix is recorded as a
// deferred shared op carrying the originating walk time (the cascade
// charges no core time, so every hop keeps now — see spill).
func (h *Hierarchy) spillPrivate(core int, addr uint64, from int, now uint64, ops []SharedOp) []SharedOp {
	for i := from; i < h.firstShared; i++ {
		hit, v, hv := h.levels[i].caches[core].Access(addr, true)
		if hit || !hv || !v.Dirty {
			return ops
		}
		addr = v.Addr
	}
	return append(ops, SharedOp{Addr: addr, At: now})
}

// AccessShared replays a private walk's deferred ops against the shared
// phase of the hierarchy (levels from the first shared one on), in
// recorded order: victim cascades first, then the demand continuation.
// stall continues from AccessPrivate's return; the composition
// AccessPrivate + AccessShared is bit-identical to Access, which is
// implemented as exactly that composition. Like Access, it reuses the
// hierarchy's victim buffer and must stay on one goroutine.
func (h *Hierarchy) AccessShared(core int, write bool, ops []SharedOp, stall uint64, now uint64) (stall2 uint64, llcMiss bool, victims []Victim) {
	h.victims = h.victims[:0]
	for _, op := range ops {
		if !op.Demand {
			h.spill(core, op.Addr, h.firstShared, op.At)
			continue
		}
		for i := h.firstShared; i < len(h.levels); i++ {
			lv := &h.levels[i]
			stall += lv.delta
			hit, v, hv := lv.cache(core).Access(op.Addr, write && i == 0)
			if hit {
				return stall, false, h.victims
			}
			if hv && v.Dirty {
				h.spill(core, v.Addr, i+1, now+stall)
			}
		}
		llcMiss = true
	}
	return stall, llcMiss, h.victims
}

// spill cascades a dirty victim into level from and deeper: each fill
// that evicts another dirty line continues the cascade, and a dirty
// line leaving the last level is recorded for the memory system. The
// cascade charges no core time (see the package comment), so every hop
// carries the originating walk time now.
func (h *Hierarchy) spill(core int, addr uint64, from int, now uint64) {
	for i := from; i < len(h.levels); i++ {
		hit, v, hv := h.levels[i].cache(core).Access(addr, true)
		if hit || !hv || !v.Dirty {
			return
		}
		addr = v.Addr
	}
	h.victims = append(h.victims, Victim{Addr: addr, Now: now})
}

// NumLevels returns the hierarchy depth.
func (h *Hierarchy) NumLevels() int { return len(h.levels) }

// LevelName returns level i's configured name.
func (h *Hierarchy) LevelName(i int) string { return h.levels[i].name }

// LevelStats returns level i's statistics aggregated across cores
// (private levels sum their per-core instances).
func (h *Hierarchy) LevelStats(i int) cache.Stats {
	var sum cache.Stats
	for _, c := range h.levels[i].caches {
		s := c.Stats()
		sum.Accesses += s.Accesses
		sum.Hits += s.Hits
		sum.Misses += s.Misses
		sum.Writebacks += s.Writebacks
	}
	return sum
}

// ResetStats clears every level's statistics without flushing contents.
func (h *Hierarchy) ResetStats() {
	for _, lv := range h.levels {
		for _, c := range lv.caches {
			c.ResetStats()
		}
	}
}
