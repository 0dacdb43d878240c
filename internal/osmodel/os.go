// Package osmodel implements the operating-system half of the
// Chameleon co-design: physical frame management over the OS-visible
// address space, per-process demand paging with page faults to an SSD,
// explicit reclamation, and the ISA-Alloc/ISA-Free notifications of
// Algorithms 1 and 2 of the paper. It also implements the two OS-based
// NUMA placement policies the paper compares against (first-touch
// allocation and AutoNUMA migration).
package osmodel

import (
	"fmt"
	"math/bits"

	"chameleon/internal/addr"
	"chameleon/internal/rng"
	"chameleon/internal/stats"
)

// Notifier receives the ISA-Alloc/ISA-Free instructions the OS issues
// per segment (Algorithms 1 and 2). Memory-system controllers implement
// it.
type Notifier interface {
	ISAAlloc(now uint64, seg addr.Seg)
	ISAFree(now uint64, seg addr.Seg)
}

// AllocPolicy selects the order in which free frames are handed out.
type AllocPolicy int

// Frame allocation policies.
const (
	// AllocShuffled models a long-running buddy allocator: frames are
	// handed out in pseudo-random order across the whole space. This
	// is the default for hardware-managed memory systems (the OS sees
	// a single node).
	AllocShuffled AllocPolicy = iota
	// AllocFirstTouch is the NUMA-aware local/first-touch policy:
	// stacked-node frames are exhausted before off-chip frames.
	AllocFirstTouch
	// AllocSequential hands out frames in ascending address order.
	AllocSequential
	// AllocInterleave alternates between the nodes while both have
	// free frames.
	AllocInterleave
	// AllocSlowFirst exhausts the off-chip node before touching the
	// stacked node. This is how a kernel whose CPUs are associated with
	// the large node behaves, and it is the allocation order under
	// which AutoNUMA's migration race (Figure 2c) can play out: the
	// stacked node keeps free frames until the footprint nears the
	// total capacity.
	AllocSlowFirst
	// AllocGroupAware implements the paper's §VI-G proposal: the OS
	// tracks segment-group occupancy and places pages so that as many
	// groups as possible keep a free segment (and thus stay usable as
	// Chameleon cache). Requires Config.Space.
	AllocGroupAware
)

func (p AllocPolicy) String() string {
	switch p {
	case AllocShuffled:
		return "shuffled"
	case AllocFirstTouch:
		return "first-touch"
	case AllocSequential:
		return "sequential"
	case AllocInterleave:
		return "interleave"
	case AllocSlowFirst:
		return "slow-first"
	case AllocGroupAware:
		return "group-aware"
	}
	return fmt.Sprintf("AllocPolicy(%d)", int(p))
}

// Config parameterises the OS model.
type Config struct {
	TotalBytes      uint64 // OS-visible physical capacity
	FastBytes       uint64 // portion of the space on the stacked node (0 if none)
	PageBytes       uint64 // page size (4 KB or a 2 MB THP)
	SegBytes        uint64 // hardware segment size; 0 disables ISA notifications
	PageFaultCycles uint64 // major-fault (SSD) stall
	Alloc           AllocPolicy
	Seed            uint64
	// NodeBytes carves the space into N NUMA nodes (ordered near to
	// far, summing to TotalBytes) so the allocator can place across an
	// arbitrary tier stack. Nil derives the classic two-node split from
	// FastBytes: [FastBytes, TotalBytes-FastBytes].
	NodeBytes []uint64
	// Space is the segment-group geometry, required by AllocGroupAware.
	Space *addr.Space
}

// Stats aggregates OS activity.
type Stats struct {
	MinorFaults  uint64 // first-touch mappings backed by a free frame
	MajorFaults  uint64 // faults that had to evict to the SSD
	Evictions    uint64
	FreedPages   uint64
	FaultCycles  uint64 // total cycles stalled on major faults
	Migrations   uint64 // AutoNUMA page migrations
	MigrateFails uint64 // AutoNUMA -ENOMEM failures
	HintFaults   uint64 // AutoNUMA sampling (PTE-poison) faults
}

// Snapshot flattens the stats into the unified metric shape.
func (s Stats) Snapshot() stats.Snapshot {
	return stats.Snapshot{
		"minor_faults":  float64(s.MinorFaults),
		"major_faults":  float64(s.MajorFaults),
		"evictions":     float64(s.Evictions),
		"freed_pages":   float64(s.FreedPages),
		"fault_cycles":  float64(s.FaultCycles),
		"migrations":    float64(s.Migrations),
		"migrate_fails": float64(s.MigrateFails),
		"hint_faults":   float64(s.HintFaults),
	}
}

const noFrame = ^uint32(0)

type frameMeta struct {
	proc  int32 // -1 = free
	vpage uint32
	ref   bool
}

// Process is a simulated address space.
type Process struct {
	id       int
	table    []uint32 // vpage -> frame (noFrame when unmapped)
	resident uint64   // mapped pages
}

// ID returns the process identifier.
func (p *Process) ID() int { return p.id }

// ResidentBytes returns the process's resident set size.
func (p *Process) ResidentBytes(pageBytes uint64) uint64 { return p.resident * pageBytes }

// OS is the operating-system model.
type OS struct {
	cfg        Config
	frames     uint64   // total frames
	fastFrames uint64   // frames on the first (stacked) node
	nodeStart  []uint64 // frame index where each node begins, plus a final sentinel
	free       [][]uint32
	meta       []frameMeta
	procs      []*Process
	hand       uint64 // CLOCK hand
	// An address's page is addr >> pageShift, its offset addr & pageMask.
	pageShift uint
	pageMask  uint64
	notifier  Notifier
	rnd       *rng.RNG
	inext     int // interleave cursor
	stats     Stats
	auto      *AutoNUMA
	groups    *groupTracker // non-nil for AllocGroupAware

	// access counters for stacked-node hit-rate reporting
	fastTouches  uint64
	totalTouches uint64
}

// New builds the OS model. notifier may be nil (no hardware
// co-design).
func New(cfg Config, notifier Notifier) (*OS, error) {
	if cfg.PageBytes == 0 || cfg.PageBytes&(cfg.PageBytes-1) != 0 {
		return nil, fmt.Errorf("osmodel: page size must be a power of two, got %d", cfg.PageBytes)
	}
	if cfg.TotalBytes == 0 || cfg.TotalBytes%cfg.PageBytes != 0 {
		return nil, fmt.Errorf("osmodel: capacity %d must be a non-zero multiple of the page size", cfg.TotalBytes)
	}
	if cfg.FastBytes%cfg.PageBytes != 0 || cfg.FastBytes > cfg.TotalBytes {
		return nil, fmt.Errorf("osmodel: fast capacity %d invalid", cfg.FastBytes)
	}
	nodeBytes := cfg.NodeBytes
	if len(nodeBytes) == 0 {
		nodeBytes = []uint64{cfg.FastBytes, cfg.TotalBytes - cfg.FastBytes}
	} else {
		var sum uint64
		for i, nb := range nodeBytes {
			if nb%cfg.PageBytes != 0 {
				return nil, fmt.Errorf("osmodel: node %d capacity %d not a multiple of the page size", i, nb)
			}
			sum += nb
		}
		if sum != cfg.TotalBytes {
			return nil, fmt.Errorf("osmodel: node capacities sum to %d, capacity is %d", sum, cfg.TotalBytes)
		}
	}
	if cfg.SegBytes != 0 && cfg.SegBytes > cfg.PageBytes {
		return nil, fmt.Errorf("osmodel: segment size %d exceeds page size %d", cfg.SegBytes, cfg.PageBytes)
	}
	if cfg.Alloc == AllocGroupAware {
		if cfg.Space == nil {
			return nil, fmt.Errorf("osmodel: AllocGroupAware requires the segment-group geometry (Config.Space)")
		}
		if cfg.Space.TotalBytes() != cfg.TotalBytes {
			return nil, fmt.Errorf("osmodel: Space covers %d bytes, capacity is %d", cfg.Space.TotalBytes(), cfg.TotalBytes)
		}
		if cfg.PageBytes%cfg.Space.SegBytes != 0 {
			return nil, fmt.Errorf("osmodel: page size %d not a multiple of the segment size %d", cfg.PageBytes, cfg.Space.SegBytes)
		}
	}
	o := &OS{
		cfg:       cfg,
		frames:    cfg.TotalBytes / cfg.PageBytes,
		notifier:  notifier,
		rnd:       rng.New(cfg.Seed),
		pageShift: uint(bits.TrailingZeros64(cfg.PageBytes)),
		pageMask:  cfg.PageBytes - 1,
	}
	o.nodeStart = make([]uint64, len(nodeBytes)+1)
	for i, nb := range nodeBytes {
		o.nodeStart[i+1] = o.nodeStart[i] + nb/cfg.PageBytes
	}
	o.fastFrames = o.nodeStart[1]
	o.meta = make([]frameMeta, o.frames)
	for i := range o.meta {
		o.meta[i].proc = -1
	}
	// Free lists are stacks; push in descending order so that
	// sequential allocation pops ascending addresses.
	o.free = make([][]uint32, len(nodeBytes))
	for n := range o.free {
		lo, hi := o.nodeStart[n], o.nodeStart[n+1]
		l := make([]uint32, 0, hi-lo)
		for f := int64(hi) - 1; f >= int64(lo); f-- {
			l = append(l, uint32(f))
		}
		o.free[n] = l
	}
	if cfg.Alloc == AllocShuffled {
		for _, l := range o.free {
			l := l
			o.rnd.Shuffle(len(l), func(i, j int) { l[i], l[j] = l[j], l[i] })
		}
	}
	if cfg.Alloc == AllocGroupAware {
		o.groups = newGroupTracker(cfg.Space, cfg.PageBytes)
	}
	return o, nil
}

// Stats returns a copy of the accumulated statistics.
func (o *OS) Stats() Stats { return o.stats }

// Name implements stats.Source.
func (o *OS) Name() string { return "os" }

// Snapshot implements stats.Source.
func (o *OS) Snapshot() stats.Snapshot { return o.stats.Snapshot() }

// ResetStats clears the statistics and hit-rate counters (mappings and
// free lists are preserved).
func (o *OS) ResetStats() {
	o.stats = Stats{}
	o.fastTouches, o.totalTouches = 0, 0
}

// Config returns the OS configuration.
func (o *OS) Config() Config { return o.cfg }

// NewProcess creates an address space.
func (o *OS) NewProcess() *Process {
	p := &Process{id: len(o.procs)}
	o.procs = append(o.procs, p)
	return p
}

// FreeBytes returns the total unallocated physical memory.
func (o *OS) FreeBytes() uint64 {
	var n int
	for _, l := range o.free {
		n += len(l)
	}
	return uint64(n) << o.pageShift
}

// FastFreeBytes returns unallocated memory on the stacked node.
func (o *OS) FastFreeBytes() uint64 {
	return uint64(len(o.free[0])) << o.pageShift
}

// Nodes returns the number of NUMA nodes the space is carved into.
func (o *OS) Nodes() int { return len(o.free) }

// nodeOf returns the node holding a frame.
func (o *OS) nodeOf(frame uint32) int {
	for n := 1; n < len(o.nodeStart); n++ {
		if uint64(frame) < o.nodeStart[n] {
			return n - 1
		}
	}
	return len(o.free) - 1
}

// ResidentBytesIn returns how much of the physical range [lo, hi) is
// currently mapped — the occupancy metric per-tier reporting uses. It
// scans frame metadata, so callers should treat it as an end-of-run
// accounting call, not a hot-path one.
func (o *OS) ResidentBytesIn(lo, hi uint64) uint64 {
	first := lo >> o.pageShift
	last := min((hi+o.pageMask)>>o.pageShift, o.frames)
	var n uint64
	for f := first; f < last; f++ {
		if o.meta[f].proc >= 0 {
			n++
		}
	}
	return n << o.pageShift
}

// StackedHitRate returns the fraction of translated accesses that
// landed on the stacked node.
func (o *OS) StackedHitRate() float64 {
	if o.totalTouches == 0 {
		return 0
	}
	return float64(o.fastTouches) / float64(o.totalTouches)
}

// pickNode chooses which node to allocate from, per the policy.
func (o *OS) pickNode() int {
	// With zero or one node holding free frames the policy has no
	// choice to make — and, critically, the RNG-backed policies must
	// consume no draw (the two-node engine behaved this way, and the
	// deterministic-equivalence gate holds us to it).
	total, nonempty, first := 0, 0, -1
	for i, l := range o.free {
		if len(l) > 0 {
			total += len(l)
			nonempty++
			if first < 0 {
				first = i
			}
		}
	}
	if nonempty <= 1 {
		return first // -1 when every node is full
	}
	switch o.cfg.Alloc {
	case AllocFirstTouch, AllocSequential:
		return first
	case AllocSlowFirst:
		for i := len(o.free) - 1; i >= 0; i-- {
			if len(o.free[i]) > 0 {
				return i
			}
		}
	case AllocInterleave:
		for range o.free {
			o.inext = (o.inext + 1) % len(o.free)
			if len(o.free[o.inext]) > 0 {
				return o.inext
			}
		}
	default: // AllocShuffled: weight by free count => uniform over frames
		k := o.rnd.Uint64n(uint64(total))
		for i, l := range o.free {
			if k < uint64(len(l)) {
				return i
			}
			k -= uint64(len(l))
		}
	}
	return -1
}

// allocFrame pops a free frame, or evicts a victim when memory is
// exhausted. It returns the frame and, when the allocation required an
// eviction (a major fault for the toucher), the ID of the process whose
// page it took; victim is -1 otherwise.
func (o *OS) allocFrame(now uint64) (frame uint32, victim int) {
	if o.groups != nil && o.FreeBytes() > 0 {
		f := o.allocGroupAware()
		o.groups.allocate(f, o.cfg.PageBytes)
		o.notifyAlloc(now, f)
		return f, -1
	}
	node := o.pickNode()
	if node >= 0 {
		l := o.free[node]
		f := l[len(l)-1]
		o.free[node] = l[:len(l)-1]
		o.notifyAlloc(now, f)
		return f, -1
	}
	return o.evict()
}

// CacheCapableGroups returns, under AllocGroupAware, how many segment
// groups still have a free segment (0 otherwise).
func (o *OS) CacheCapableGroups() uint32 {
	if o.groups == nil {
		return 0
	}
	return o.groups.cacheCapableGroups()
}

// evict runs the CLOCK algorithm to pick and unmap a victim frame,
// returning it with the ID of the process that owned it. The frame
// remains allocated (it is immediately reused), so no ISA notifications
// are issued.
func (o *OS) evict() (frame uint32, owner int) {
	for sweep := uint64(0); sweep < 2*o.frames+1; sweep++ {
		f := o.hand
		o.hand = (o.hand + 1) % o.frames
		m := &o.meta[f]
		if m.proc < 0 {
			continue
		}
		if m.ref {
			m.ref = false
			continue
		}
		p := o.procs[m.proc]
		p.table[m.vpage] = noFrame
		p.resident--
		m.proc = -1
		o.stats.Evictions++
		return uint32(f), p.id
	}
	panic("osmodel: evict found no resident frame")
}

func (o *OS) notifyAlloc(now uint64, frame uint32) {
	if o.notifier == nil || o.cfg.SegBytes == 0 {
		return
	}
	base := uint64(frame) << o.pageShift
	for off := uint64(0); off < o.cfg.PageBytes; off += o.cfg.SegBytes {
		o.notifier.ISAAlloc(now, addr.Seg((base+off)/o.cfg.SegBytes))
	}
}

func (o *OS) notifyFree(now uint64, frame uint32) {
	if o.notifier == nil || o.cfg.SegBytes == 0 {
		return
	}
	base := uint64(frame) << o.pageShift
	for off := uint64(0); off < o.cfg.PageBytes; off += o.cfg.SegBytes {
		o.notifier.ISAFree(now, addr.Seg((base+off)/o.cfg.SegBytes))
	}
}

// Translate maps a virtual address to its OS physical address,
// demand-paging on first touch. stall is the page-fault penalty (0,
// or PageFaultCycles when the fault had to evict to the SSD).
func (o *OS) Translate(p *Process, vaddr uint64, now uint64) (phys addr.Phys, stall uint64) {
	phys, stall, _ = o.TranslateVictim(p, vaddr, now)
	return phys, stall
}

// TranslateVictim is Translate that also reports whose page a fault
// evicted: the owning process's ID (see Process.ID), or -1 when the
// translation evicted nothing.
func (o *OS) TranslateVictim(p *Process, vaddr uint64, now uint64) (phys addr.Phys, stall uint64, victim int) {
	victim = -1
	vpage := vaddr >> o.pageShift
	for uint64(len(p.table)) <= vpage {
		p.table = append(p.table, noFrame)
	}
	frame := p.table[vpage]
	if frame == noFrame {
		frame, victim = o.allocFrame(now)
		if victim >= 0 {
			o.stats.MajorFaults++
			o.stats.FaultCycles += o.cfg.PageFaultCycles
			stall = o.cfg.PageFaultCycles
		} else {
			o.stats.MinorFaults++
		}
		m := &o.meta[frame]
		m.proc = int32(p.id)
		m.vpage = uint32(vpage)
		p.table[vpage] = frame
		p.resident++
	}
	m := &o.meta[frame]
	m.ref = true
	onFast := uint64(frame) < o.fastFrames
	o.totalTouches++
	if onFast {
		o.fastTouches++
	}
	if o.auto != nil {
		stall += o.auto.record(frame, onFast)
	}
	return addr.Phys(uint64(frame)<<o.pageShift | vaddr&o.pageMask), stall, victim
}

// Mapped reports whether vaddr's page is resident in p. It has no side
// effect: it neither marks the frame referenced nor counts a touch, so
// it may look at any process's table at any time.
func (o *OS) Mapped(p *Process, vaddr uint64) bool {
	vpage := vaddr >> o.pageShift
	return vpage < uint64(len(p.table)) && p.table[vpage] != noFrame
}

// TranslateMapped is the read-only path of Translate for pages that
// are already resident: it resolves the mapping, marks the frame
// referenced, and reports whether the frame sits on the stacked node —
// but it never grows the page table, never allocates or evicts a frame,
// and never touches the OS-wide access counters or the AutoNUMA engine
// (callers accumulate touches per core and merge them with AddTouches).
// ok is false when the page is unmapped; the caller must then route the
// access through the full Translate fault path.
//
// The simulator's run-ahead path calls it ahead of other cores'
// commits. That is sound below the caller's fault horizon: evictions
// are the only cross-process page-table mutation and the only reader of
// the reference bit it sets, so a call is exact as long as every
// eviction that precedes it in the caller's commit order has already
// run. Where nothing can evict, the horizon is unbounded.
func (o *OS) TranslateMapped(p *Process, vaddr uint64) (phys addr.Phys, onFast, ok bool) {
	vpage := vaddr >> o.pageShift
	if vpage >= uint64(len(p.table)) {
		return 0, false, false
	}
	frame := p.table[vpage]
	if frame == noFrame {
		return 0, false, false
	}
	o.meta[frame].ref = true
	return addr.Phys(uint64(frame)<<o.pageShift | vaddr&o.pageMask), uint64(frame) < o.fastFrames, true
}

// AddTouches merges access counts accumulated outside Translate (the
// per-core tallies of TranslateMapped callers) into the stacked-node
// hit-rate counters. Order-independent, so merging per-core sums at the
// end of a pass reproduces sequential Translate counting exactly.
func (o *OS) AddTouches(total, fast uint64) {
	o.totalTouches += total
	o.fastTouches += fast
}

// Map eagerly maps [vaddr, vaddr+bytes) (used by OS-level capacity
// experiments that do not need per-access timing). It returns the
// number of major faults incurred.
func (o *OS) Map(p *Process, vaddr, bytes uint64, now uint64) (majors uint64) {
	end := vaddr + bytes
	for va := vaddr &^ o.pageMask; va < end; va += o.cfg.PageBytes {
		if _, stall := o.Translate(p, va, now); stall > 0 {
			majors++
		}
	}
	return majors
}

// FreeRange unmaps and frees [vaddr, vaddr+bytes), returning frames to
// their node's free list and issuing ISA-Free notifications
// (Algorithm 2).
func (o *OS) FreeRange(p *Process, vaddr, bytes uint64, now uint64) {
	end := vaddr + bytes
	for va := vaddr &^ o.pageMask; va < end; va += o.cfg.PageBytes {
		vpage := va >> o.pageShift
		if vpage >= uint64(len(p.table)) {
			continue
		}
		frame := p.table[vpage]
		if frame == noFrame {
			continue
		}
		p.table[vpage] = noFrame
		p.resident--
		o.meta[frame].proc = -1
		node := o.nodeOf(frame)
		o.free[node] = append(o.free[node], frame)
		if o.groups != nil {
			o.groups.release(frame, o.cfg.PageBytes)
		}
		o.stats.FreedPages++
		o.notifyFree(now, frame)
	}
}

// FreeAll releases every mapping of the process.
func (o *OS) FreeAll(p *Process, now uint64) {
	o.FreeRange(p, 0, uint64(len(p.table))<<o.pageShift, now)
}
