package policy

import (
	"chameleon/internal/addr"
	"chameleon/internal/srrt"
)

func init() {
	// The three ISA-consuming designs share a build shape; only the
	// constructor differs.
	build := func(ctor func(sp *addr.Space, bc BuildContext) (Controller, error)) func(BuildContext) (Controller, error) {
		return func(bc BuildContext) (Controller, error) {
			sp, err := bc.NewSpace(uint64(bc.Config.MemSys.SegmentBytes))
			if err != nil {
				return nil, err
			}
			return ctor(sp, bc)
		}
	}
	Register("polymorphic", Descriptor{
		NeedsISA: true,
		Build: build(func(sp *addr.Space, bc BuildContext) (Controller, error) {
			ms := bc.Config.MemSys
			return NewPolymorphic(sp, bc.Tiers[0].Mem, bc.Tiers[1].Mem, ms.SRTCacheEntries, ms.CacheLineBytes, ms.ClearOnModeSwitch)
		}),
	})
	Register("chameleon", Descriptor{
		NeedsISA: true,
		Build: build(func(sp *addr.Space, bc BuildContext) (Controller, error) {
			ms := bc.Config.MemSys
			return NewChameleon(sp, bc.Tiers[0].Mem, bc.Tiers[1].Mem, ms.SRTCacheEntries, ms.SwapThreshold, ms.CacheLineBytes, ms.ClearOnModeSwitch)
		}),
	})
	Register("chameleon-opt", Descriptor{
		NeedsISA: true,
		Build: build(func(sp *addr.Space, bc BuildContext) (Controller, error) {
			ms := bc.Config.MemSys
			return NewChameleonOpt(sp, bc.Tiers[0].Mem, bc.Tiers[1].Mem, ms.SRTCacheEntries, ms.SwapThreshold, ms.CacheLineBytes, ms.ClearOnModeSwitch)
		}),
	})
}

// Chameleon implements the paper's hardware-software co-design. It is a
// PoM system whose segment groups dynamically switch between PoM mode
// and cache mode, driven by ISA-Alloc/ISA-Free notifications from the
// OS (Figures 8/10 for the basic design, Figures 12/14 for
// Chameleon-Opt):
//
//   - In PoM mode the group behaves exactly like the PoM baseline
//     (competing-counter driven segment swaps).
//   - In cache mode the group's stacked slot is backed by a free
//     segment and caches off-chip segments with no insertion threshold,
//     writing back dirty victims on eviction.
//
// The basic design enters cache mode only when the group's *stacked*
// segment is freed. Chameleon-Opt (opt=true) additionally remaps
// segments proactively so that free space anywhere in the group frees
// up the stacked slot for caching.
//
// With pomSwaps=false and opt=false the controller degenerates into the
// Polymorphic Memory design of Chung et al. [51]: free stacked space is
// used as a cache but hot segments are never swapped in PoM mode.
type Chameleon struct {
	*remapSys
	name     string
	opt      bool
	pomSwaps bool
}

// NewChameleon builds the basic Chameleon controller.
func NewChameleon(space *addr.Space, fast, slow Mem, metaEntries, threshold, lineBytes int, clearing bool) (*Chameleon, error) {
	return newChameleonVariant("chameleon", space, fast, slow, metaEntries, threshold, lineBytes, clearing, false, true)
}

// NewChameleonOpt builds the optimised controller with proactive
// remapping.
func NewChameleonOpt(space *addr.Space, fast, slow Mem, metaEntries, threshold, lineBytes int, clearing bool) (*Chameleon, error) {
	return newChameleonVariant("chameleon-opt", space, fast, slow, metaEntries, threshold, lineBytes, clearing, true, true)
}

// NewPolymorphic builds the Polymorphic Memory comparison point [51].
func NewPolymorphic(space *addr.Space, fast, slow Mem, metaEntries, lineBytes int, clearing bool) (*Chameleon, error) {
	return newChameleonVariant("polymorphic", space, fast, slow, metaEntries, 1, lineBytes, clearing, false, false)
}

func newChameleonVariant(name string, space *addr.Space, fast, slow Mem, metaEntries, threshold, lineBytes int, clearing, opt, pomSwaps bool) (*Chameleon, error) {
	rs, err := newRemapSys(space, fast, slow, metaEntries, threshold, lineBytes, clearing)
	if err != nil {
		return nil, err
	}
	c := &Chameleon{remapSys: rs, name: name, opt: opt, pomSwaps: pomSwaps}
	// At boot nothing is allocated, so every group's stacked slot is
	// free and usable as a cache.
	for g := uint32(0); g < c.table.Groups(); g++ {
		c.table.SetMode(addr.Group(g), srrt.ModeCache)
	}
	return c, nil
}

// Name implements Controller.
func (c *Chameleon) Name() string { return c.name }

// OSVisibleBytes implements Controller.
func (c *Chameleon) OSVisibleBytes() uint64 { return c.space.TotalBytes() }

// Stats implements Controller.
func (c *Chameleon) Stats() Stats { return c.stats }

// ResetStats implements Controller.
func (c *Chameleon) ResetStats() { c.stats = Stats{} }

// Table exposes the remapping table for tests and invariant checks.
func (c *Chameleon) Table() *srrt.Table { return c.table }

// CacheModeFraction implements ModeDistribution.
func (c *Chameleon) CacheModeFraction() float64 {
	g := c.table.Groups()
	if g == 0 {
		return 0
	}
	return float64(c.table.CacheModeGroups()) / float64(g)
}

// Access implements Controller.
func (c *Chameleon) Access(now uint64, phys addr.Phys, write bool) AccessResult {
	g, way := c.space.GroupOf(c.space.SegOf(phys))
	t := c.metaLookup(now, g)
	offset := c.space.OffsetIn(phys)

	if c.table.ModeOf(g) == srrt.ModePoM {
		done, fastHit := c.pomModeAccess(t, g, way, offset, write, c.pomSwaps)
		return c.recordAccess(now, done, fastHit)
	}
	done, fastHit := c.cacheModeAccess(t, g, way, offset, write)
	return c.recordAccess(now, done, fastHit)
}

// cacheModeAccess services an access to a group in cache mode: hits are
// served from the slot-0 copy; misses are served from the authoritative
// off-chip slot and then fill the stacked slot with no insertion
// threshold (the source of Chameleon's hit-rate edge over PoM, §VI-B).
func (c *Chameleon) cacheModeAccess(now uint64, g addr.Group, way addr.Way, offset uint64, write bool) (uint64, bool) {
	loc := c.table.Lookup(g, way)
	if loc.CacheHit {
		done, _ := c.slotAccess(now, g, 0, offset, write)
		if write {
			c.table.MarkCacheDirty(g)
		}
		return done, true
	}
	done, fastHit := c.slotAccess(now, g, loc.Slot, offset, write)
	if fastHit {
		// Defensive: a demand access to the (free) slot-0 resident;
		// the OS should never touch unallocated memory.
		return done, true
	}
	if write {
		// Writeback traffic does not allocate into the segment cache:
		// filling 2 KB to absorb a 64 B eviction would only churn the
		// slot and manufacture dirty evictions.
		return done, false
	}
	if !c.canTransfer(now) {
		// In-transit buffers full: serve from off-chip without
		// inserting (the next access to the segment retries).
		return done, false
	}

	// Evict the current copy and fill the demanded segment, off the
	// demand critical path (critical-word-first through the in-transit
	// buffers).
	dirtyEvict := false
	if old, dirty, valid := c.table.CacheTag(g); valid {
		if dirty {
			c.moveSegment(now, g, 0, c.table.SlotOf(g, old))
			c.stats.Writebacks++
			dirtyEvict = true
		}
		c.table.InvalidateCache(g)
	}
	c.moveSegment(now, g, loc.Slot, 0)
	if dirtyEvict {
		// A dirty eviction plus a fill consumes the bandwidth of a
		// full swap; the paper counts these as swaps (§VI-B).
		c.stats.Swaps++
	} else {
		c.stats.Fills++
	}
	c.table.FillCache(g, way)
	if write {
		c.table.MarkCacheDirty(g)
	}
	return done, false
}

// ISAAlloc implements Controller (Figure 8 / Figure 12).
func (c *Chameleon) ISAAlloc(now uint64, seg addr.Seg) {
	c.stats.ISAAllocs++
	g, way := c.space.GroupOf(seg)
	t := c.metaLookup(now, g)
	c.table.SetAllocated(g, way, true)
	if c.opt {
		c.isaAllocOpt(t, g, way)
	} else {
		c.isaAllocBasic(t, g, way)
	}
}

// isaAllocBasic: only allocations of stacked-range addresses can end
// cache mode (Figure 8).
func (c *Chameleon) isaAllocBasic(now uint64, g addr.Group, way addr.Way) {
	if way != 0 || c.table.ModeOf(g) != srrt.ModeCache {
		return
	}
	// The stacked segment is being allocated: stop caching and switch
	// the group to PoM mode.
	c.endCaching(now, g)
	c.table.SetMode(g, srrt.ModePoM)
	c.table.ResetCounter(g)
	c.clearSegment(now, g, 0)
}

// isaAllocOpt: keep the group in cache mode as long as any segment
// remains free, proactively remapping the allocated segment out of the
// stacked slot when possible (Figures 12/13).
func (c *Chameleon) isaAllocOpt(now uint64, g addr.Group, way addr.Way) {
	if c.table.ModeOf(g) != srrt.ModeCache {
		return // defensive: the OS should not allocate in a full group
	}
	slot := c.table.SlotOf(g, way)
	if slot == 0 {
		// The newly allocated segment would occupy the stacked slot.
		if free, ok := c.table.FreeWay(g, way); ok {
			// Proactively remap it to a free off-chip slot so the
			// stacked slot stays available for caching (Figure 13).
			dst := c.table.SlotOf(g, free)
			c.table.SwapSlots(g, 0, dst)
			c.stats.ProactiveMoves++
			c.clearSegment(now, g, dst)
			return
		}
		// No free segment left: the group is full, switch to PoM.
		c.endCaching(now, g)
		c.table.SetMode(g, srrt.ModePoM)
		c.table.ResetCounter(g)
		c.clearSegment(now, g, 0)
		return
	}
	// Allocated at an off-chip slot. The slot-0 resident is still free
	// (cache-mode invariant), so the group stays in cache mode.
}

// endCaching writes back a dirty cache copy and drops the cache tag.
func (c *Chameleon) endCaching(now uint64, g addr.Group) {
	if old, dirty, valid := c.table.CacheTag(g); valid {
		if dirty {
			c.moveSegment(now, g, 0, c.table.SlotOf(g, old))
			c.stats.Writebacks++
		}
		c.table.InvalidateCache(g)
	}
}

// ISAFree implements Controller (Figure 10 / Figure 14).
func (c *Chameleon) ISAFree(now uint64, seg addr.Seg) {
	c.stats.ISAFrees++
	g, way := c.space.GroupOf(seg)
	t := c.metaLookup(now, g)
	c.table.SetAllocated(g, way, false)

	if c.table.ModeOf(g) == srrt.ModeCache {
		// Already caching; if the freed segment happens to be the one
		// cached, drop the (now meaningless) copy.
		if cw, _, valid := c.table.CacheTag(g); valid && cw == way {
			c.table.InvalidateCache(g)
			c.clearSegment(t, g, 0)
		}
		return
	}

	// Group is in PoM mode.
	if !c.opt && way != 0 {
		// Basic design: frees of off-chip addresses never trigger a
		// transition (Figure 10, flow 1-2-4-5).
		return
	}
	slot := c.table.SlotOf(g, way)
	switch {
	case slot == 0:
		// The freed segment already occupies the stacked slot: it
		// becomes the cache slot with no data movement.
	case !c.opt:
		// Basic design, freed stacked segment is remapped off-chip
		// (Figure 11): swap it back into the stacked slot so the slot
		// is available for caching.
		c.swapSegments(t, g, 0, slot)
		c.stats.ProactiveMoves++
	default:
		// Chameleon-Opt, freed segment lives off-chip: move the
		// allocated stacked resident out to the freed slot, vacating
		// the stacked slot for caching (Figure 14, flow 2-3-4-5-7).
		c.moveSegment(t, g, 0, slot)
		c.table.SwapSlots(g, 0, slot)
		c.stats.ProactiveMoves++
	}
	c.table.SetMode(g, srrt.ModeCache)
	c.table.ResetCounter(g)
	c.clearSegment(t, g, 0)
}
