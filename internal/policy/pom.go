package policy

import (
	"chameleon/internal/addr"
	"chameleon/internal/srrt"
)

func init() {
	Register("pom", Descriptor{
		Build: func(bc BuildContext) (Controller, error) {
			ms := bc.Config.MemSys
			sp, err := bc.NewSpace(uint64(ms.SegmentBytes))
			if err != nil {
				return nil, err
			}
			return NewPoM("pom", sp, bc.Tiers[0].Mem, bc.Tiers[1].Mem, ms.SRTCacheEntries, ms.SwapThreshold, ms.CacheLineBytes)
		},
	})
	// CAMEO remaps at cache-line granularity with first-touch swaps.
	Register("cameo", Descriptor{
		Build: func(bc BuildContext) (Controller, error) {
			ms := bc.Config.MemSys
			sp, err := bc.NewSpace(uint64(ms.CacheLineBytes))
			if err != nil {
				return nil, err
			}
			return NewPoM("cameo", sp, bc.Tiers[0].Mem, bc.Tiers[1].Mem, ms.SRTCacheEntries, 1, ms.CacheLineBytes)
		},
	})
}

// remapSys is the machinery shared by all SRRT-based controllers (PoM,
// CAMEO-style, Polymorphic, Chameleon, Chameleon-Opt): address
// translation through the remapping table, the on-die SRT metadata
// cache, and the segment swap/move engine with its bandwidth
// accounting.
type remapSys struct {
	space *addr.Space
	table *srrt.Table
	meta  *srrt.MetaCache
	fast  Mem
	slow  Mem

	segBytes  int
	lineBytes int
	threshold int // PoM competing-counter swap threshold
	clearing  bool

	// Finite in-transit swap buffers: optional background transfers
	// (threshold swaps, cache fills) are skipped while the engine is
	// more than maxBacklog cycles behind, preventing segment traffic
	// from drowning demand accesses.
	xferBacklog uint64 // completion cycle of the latest transfer
	maxBacklog  uint64

	// fastForward suppresses device traffic (but not metadata updates)
	// while the simulator fast-forwards to the region of interest.
	fastForward bool

	stats Stats
}

// congestible is implemented by devices that can report data-bus
// congestion (dram.Device does).
type congestible interface {
	QueueDelay(now uint64) uint64
}

// canTransfer reports whether the swap engine can accept an optional
// background transfer at the given cycle: its own in-transit buffers
// must have drained and the devices must not be badly congested —
// modelling the paper's "drained opportunistically" write buffers.
func (r *remapSys) canTransfer(now uint64) bool {
	if r.xferBacklog > now+r.maxBacklog {
		return false
	}
	for _, m := range [2]Mem{r.fast, r.slow} {
		if c, ok := m.(congestible); ok && c.QueueDelay(now) > r.maxBacklog {
			return false
		}
	}
	return true
}

// SetFastForward toggles fast-forward mode: remapping metadata is still
// maintained, but segment transfers and clears do not consume simulated
// DRAM bandwidth. Used while the simulator warms state up to the region
// of interest.
func (r *remapSys) SetFastForward(v bool) { r.fastForward = v }

func newRemapSys(space *addr.Space, fast, slow Mem, metaEntries, threshold, lineBytes int, clearing bool) (*remapSys, error) {
	table, err := srrt.New(space)
	if err != nil {
		return nil, err
	}
	return &remapSys{
		space:      space,
		table:      table,
		meta:       srrt.NewMetaCache(metaEntries),
		fast:       fast,
		slow:       slow,
		segBytes:   int(space.SegBytes),
		lineBytes:  lineBytes,
		threshold:  threshold,
		clearing:   clearing,
		maxBacklog: 2048,
	}, nil
}

// metaLookup models the SRRT lookup: a miss in the on-die SRT cache
// costs one extra stacked-DRAM access (the table lives in stacked DRAM,
// as in [25]). It returns the cycle at which translation is available.
func (r *remapSys) metaLookup(now uint64, g addr.Group) uint64 {
	if r.meta.Lookup(uint32(g)) {
		r.stats.SRTHits++
		return now
	}
	r.stats.SRTMisses++
	if r.fastForward {
		return now
	}
	return r.fast.Access(now, uint64(g)<<6%r.space.FastBytes, false, 64)
}

// slotMem returns the device and device-local base address of a group
// slot.
func (r *remapSys) slotMem(g addr.Group, slot addr.Way) (Mem, uint64, bool) {
	fast, local := r.space.SlotAddr(g, slot)
	if fast {
		return r.fast, local, true
	}
	return r.slow, local, false
}

// slotAccess performs one demand access to offset within a group slot.
func (r *remapSys) slotAccess(now uint64, g addr.Group, slot addr.Way, offset uint64, write bool) (done uint64, fastHit bool) {
	mem, base, isFast := r.slotMem(g, slot)
	if r.fastForward {
		// Warm-up: state transitions happen, timing is nominal.
		return now + 200, isFast
	}
	return mem.Access(now, base+offset, write, 64), isFast
}

// moveSegment streams one segment from slot src to slot dst (a one-way
// move through the in-transit buffers). It returns the completion
// cycle; the transfer consumes read bandwidth at the source and write
// bandwidth at the destination.
func (r *remapSys) moveSegment(now uint64, g addr.Group, src, dst addr.Way) uint64 {
	r.stats.SwapBytes += uint64(r.segBytes)
	if r.fastForward {
		return now
	}
	sm, sb, _ := r.slotMem(g, src)
	dm, db, _ := r.slotMem(g, dst)
	rd := sm.Stream(now, sb, false, r.segBytes, r.lineBytes)
	wr := dm.Stream(now, db, true, r.segBytes, r.lineBytes)
	done := max(rd, wr)
	if done > r.xferBacklog {
		r.xferBacklog = done
	}
	return done
}

// swapSegments exchanges the contents of two slots (both directions
// move through the fast-swap in-transit buffers [25]) and updates the
// remapping table. It returns the completion cycle of the transfer.
func (r *remapSys) swapSegments(now uint64, g addr.Group, a, b addr.Way) uint64 {
	d1 := r.moveSegment(now, g, a, b)
	d2 := r.moveSegment(now, g, b, a)
	r.table.SwapSlots(g, a, b)
	r.stats.Swaps++
	return max(d1, d2)
}

// clearSegment models the security clearing of a slot on cache<->PoM
// transitions (§V-D2): a background stream of zero writes.
func (r *remapSys) clearSegment(now uint64, g addr.Group, slot addr.Way) {
	if !r.clearing {
		return
	}
	r.stats.ClearedSegments++
	if r.fastForward {
		return
	}
	m, b, _ := r.slotMem(g, slot)
	m.Stream(now, b, true, r.segBytes, r.lineBytes)
}

// pomModeAccess services an access to a group operating in PoM mode:
// translate through the permutation, access the resident slot, and run
// the competing-counter hot-segment detector, swapping when a segment
// crosses the threshold.
func (r *remapSys) pomModeAccess(now uint64, g addr.Group, way addr.Way, offset uint64, write bool, allowSwap bool) (uint64, bool) {
	slot := r.table.SlotOf(g, way)
	done, fastHit := r.slotAccess(now, g, slot, offset, write)
	if !fastHit && allowSwap {
		if r.table.CountAccess(g, way, r.threshold) && r.canTransfer(now) {
			// Swap the hot segment with whatever occupies the stacked
			// slot; the demand access was already serviced
			// critical-word-first from the source, and the transfer
			// bandwidth is charged from the request time (in-transit
			// buffers drain opportunistically). When the buffers are
			// full the swap is deferred: the counter stays saturated
			// and the next access retries.
			r.swapSegments(now, g, 0, slot)
			r.table.ResetCounter(g)
		}
	}
	return done, fastHit
}

func (r *remapSys) recordAccess(now, done uint64, fastHit bool) AccessResult {
	r.stats.Accesses++
	if fastHit {
		r.stats.FastHits++
	}
	r.stats.LatencySum += done - now
	return AccessResult{Done: done, FastHit: fastHit}
}

// PoM is the hardware-managed Part-of-Memory baseline (Sim et al.,
// MICRO 2014): the full stacked+off-chip capacity is OS-visible, a
// segment-restricted remapping table redirects accesses, and a shared
// competing counter per group swaps hot off-chip segments into the
// stacked slot once they cross an access threshold. PoM is agnostic to
// OS free space: ISA-Alloc/ISA-Free are ignored.
type PoM struct {
	*remapSys
	name string
}

// NewPoM builds the PoM controller. threshold is the competing-counter
// swap threshold (the paper's baseline uses a small threshold; CAMEO
// behaviour is approximated with threshold 1 and 64 B segments).
func NewPoM(name string, space *addr.Space, fast, slow Mem, metaEntries, threshold, lineBytes int) (*PoM, error) {
	rs, err := newRemapSys(space, fast, slow, metaEntries, threshold, lineBytes, false)
	if err != nil {
		return nil, err
	}
	return &PoM{remapSys: rs, name: name}, nil
}

// Name implements Controller.
func (p *PoM) Name() string { return p.name }

// OSVisibleBytes implements Controller.
func (p *PoM) OSVisibleBytes() uint64 { return p.space.TotalBytes() }

// Stats implements Controller.
func (p *PoM) Stats() Stats { return p.stats }

// ResetStats implements Controller.
func (p *PoM) ResetStats() { p.stats = Stats{} }

// Access implements Controller.
func (p *PoM) Access(now uint64, phys addr.Phys, write bool) AccessResult {
	g, way := p.space.GroupOf(p.space.SegOf(phys))
	t := p.metaLookup(now, g)
	done, fastHit := p.pomModeAccess(t, g, way, p.space.OffsetIn(phys), write, true)
	return p.recordAccess(now, done, fastHit)
}

// ISAAlloc implements Controller; PoM is free-space agnostic.
func (p *PoM) ISAAlloc(now uint64, seg addr.Seg) { p.stats.ISAAllocs++ }

// ISAFree implements Controller; PoM is free-space agnostic.
func (p *PoM) ISAFree(now uint64, seg addr.Seg) { p.stats.ISAFrees++ }

// Table exposes the remapping table for tests and invariant checks.
func (p *PoM) Table() *srrt.Table { return p.table }
