package sim

import (
	"context"
	"fmt"
	"math"

	"chameleon/internal/addr"
	"chameleon/internal/cache"
	"chameleon/internal/hier"
	"chameleon/internal/osmodel"
	"chameleon/internal/policy"
	"chameleon/internal/stats"
	"chameleon/internal/trace"
)

// CoreResult summarises one core's execution.
type CoreResult struct {
	// Workload names the profile this core ran (the Mix entry under
	// Options.Mix, else Options.Workload).
	Workload     string
	Instructions uint64
	Cycles       uint64
	IPC          float64
	LLCMisses    uint64
	MPKI         float64
	FaultCycles  uint64
}

// LevelResult is one cache level's aggregate statistics (private levels
// summed across cores).
type LevelResult struct {
	Level string
	cache.Stats
}

// TierResult is one memory tier's end-of-run statistics.
type TierResult struct {
	Tier          string // device name (stacked, offchip, nvm, ...)
	Kind          string // dram / nvm / cxl
	CapacityBytes uint64
	// DemandAccesses is the tier's demand-access count. For designs
	// without per-tier accounting it is derived from the controller's
	// fast-hit split (exact for two tiers, zero beyond them).
	DemandAccesses uint64
	// Occupancy is the resident fraction of the tier's OS home range,
	// when the whole stack is OS-visible (0 otherwise).
	Occupancy float64
	// EnergyNJ is the tier's energy over the measured run per its
	// configured power profile; Utilization is its busy fraction of
	// peak bandwidth over the same window (Result.MeasuredCycles).
	EnergyNJ    float64
	Utilization float64
	// Device is the backing device's full counter snapshot (row hits
	// for DRAM, wear counters for NVM, link waits for CXL, ...).
	Device stats.Snapshot
}

// Result summarises a simulation run.
type Result struct {
	Policy string
	// Workload names the run's profile; under Options.Mix it is every
	// mix entry's name joined with "+" (see CoreResult.Workload for the
	// per-core assignment).
	Workload string
	Cores    []CoreResult

	GeoMeanIPC     float64
	StackedHitRate float64
	AMAT           float64
	// CacheModeFraction is the share of segment groups in cache mode
	// at the end of the run (Chameleon designs only, else 0).
	CacheModeFraction float64
	// CPUUtilization is 1 - (page-fault stall share of total cycles).
	CPUUtilization float64
	MaxCycles      uint64

	Ctrl policy.Stats
	OS   osmodel.Stats
	// Tiers holds per-tier statistics in stack order (nearest first).
	Tiers []TierResult
	// Levels holds per-cache-level statistics in hierarchy order (the
	// last entry is the LLC).
	Levels []LevelResult

	NUMATimeline []osmodel.EpochRecord
	// Timeline is populated when Options.TimelineEpochCycles is set.
	Timeline []TimelinePoint
}

// Run executes instrPerCore instructions on every core and returns the
// aggregated results. It may be called once per System; a second call
// returns an error because caches, remapping tables and OS state carry
// the first run's history.
func (s *System) Run(instrPerCore uint64) (*Result, error) {
	return s.RunContext(context.Background(), instrPerCore)
}

// RunContext is Run with cancellation: the context is checked at epoch
// boundaries of the simulation loop (every few thousand simulated
// references), so a deadline or an explicit cancel stops a runaway
// simulation promptly. The returned error wraps ctx.Err() when the run
// was cut short.
func (s *System) RunContext(ctx context.Context, instrPerCore uint64) (*Result, error) {
	if instrPerCore == 0 {
		return nil, fmt.Errorf("sim: instruction budget must be positive")
	}
	if s.ran {
		return nil, fmt.Errorf("sim: Run may be called only once per System (construct a new System for another run)")
	}
	s.ran = true
	s.runCtx = ctx
	if !s.opts.SkipPrefault {
		if err := s.prefault(ctx); err != nil {
			return nil, err
		}
		if s.auto != nil {
			// The init sweep is not application heat.
			s.auto.ResetWindow()
		}
	}
	c := &s.cores
	if s.opts.WarmupInstructions > 0 {
		// Warm caches, remapping tables, hot-segment counters and OS
		// state without consuming simulated DRAM bandwidth.
		if ff, ok := s.ctrl.(fastForwarder); ok {
			ff.SetFastForward(true)
		}
		if err := s.execute(s.opts.WarmupInstructions); err != nil {
			return nil, err
		}
		if ff, ok := s.ctrl.(fastForwarder); ok {
			ff.SetFastForward(false)
		}
		s.resetStats()
	}
	// Phase barrier: align core clocks so that cores frozen at the end
	// of warm-up (they hit their instruction budget early) do not see
	// artificially congested devices left behind by slower cores.
	var t0 uint64
	for _, tm := range c.time {
		t0 = max(t0, tm)
	}
	start := make([]uint64, c.n())
	instr0 := make([]uint64, c.n())
	faults0 := make([]uint64, c.n())
	for i := range start {
		c.time[i] = t0
		start[i] = c.time[i]
		instr0[i] = c.instr[i]
		faults0[i] = c.faultCycles[i]
	}
	if s.opts.TimelineEpochCycles > 0 {
		s.nextEpoch = t0 + s.opts.TimelineEpochCycles
	}
	if err := s.execute(instrPerCore); err != nil {
		return nil, err
	}
	return s.collect(start, instr0, faults0), nil
}

// sampleTimeline records a TimelinePoint when the given time crosses
// the next epoch boundary. Only commits call it, so samples fire
// in commit order.
func (s *System) sampleTimeline(now uint64) {
	next := s.nextEpoch
	if now < next {
		return
	}
	p := TimelinePoint{Cycle: now, StackedHitRate: s.ctrl.Stats().HitRate()}
	if md, ok := s.ctrl.(policy.ModeDistribution); ok {
		p.CacheModeFraction = md.CacheModeFraction()
	}
	s.timeline = append(s.timeline, p)
	for next <= now {
		next += s.opts.TimelineEpochCycles
	}
	s.nextEpoch = next
	if s.opts.Progress != nil {
		s.opts.Progress(p)
	}
}

// fastForwarder is implemented by controllers that can warm their
// metadata without consuming simulated DRAM bandwidth.
type fastForwarder interface{ SetFastForward(bool) }

// prefault maps every process's footprint up front (the paper
// fast-forwards to the region of interest with memory resident).
// Processes are interleaved in chunks so their pages mix in physical
// memory, as they would after a real ramp-up.
func (s *System) prefault(ctx context.Context) error {
	if ff, ok := s.ctrl.(fastForwarder); ok {
		ff.SetFastForward(true)
		defer ff.SetFastForward(false)
	}
	const chunk = 1 << 20
	c := &s.cores
	var maxFootprint uint64
	for _, src := range c.stream {
		maxFootprint = max(maxFootprint, src.Profile().FootprintBytes)
	}
	for off := uint64(0); off < maxFootprint; off += chunk {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("sim: run canceled during prefault: %w", err)
		}
		for i := range c.proc {
			fp := c.stream[i].Profile().FootprintBytes
			if off >= fp {
				continue
			}
			s.os.Map(c.proc[i], off, min(chunk, fp-off), c.time[i])
		}
	}
	return nil
}

func (s *System) resetStats() {
	s.ctrl.ResetStats()
	for _, t := range s.tiers {
		t.Dev.ResetStats()
	}
	s.hier.ResetStats()
	s.os.ResetStats()
	c := &s.cores
	for i := range c.llcMisses {
		c.llcMisses[i] = 0
		c.faultCycles[i] = 0
		c.memStall[i] = 0
	}
}

// ctxCheckInterval is how many simulated references execute between
// RunContext cancellation checks. Coarse enough to stay off the hot
// path, fine enough that a cancel lands within microseconds of wall
// time.
const ctxCheckInterval = 4096

// execute runs every core for budget further instructions. It returns
// a non-nil error only when the run context is canceled (or when a
// run-ahead invariant is violated).
//
// The pass runs on one goroutine: an indexed min-heap holds every
// unfinished core under the (key, id) commit position of its parked
// event. The loop takes the minimum core, commits its event, runs the
// core's private prefixes straight through (runPrivate) until a step
// needs shared state or the budget is spent, then parks the core under
// its new key (fix) or pops it. Private prefixes commute across cores,
// so only shared events need ordering, and the heap moves once per
// shared event instead of once per reference. Translation is private
// only below the core's fault horizon (System.horizon): a step at or
// past it parks as an evTranslate, and its commit translates and walks
// the whole hierarchy in (time, id) order. A bounded run re-bounds a
// core each time it parks.
func (s *System) execute(budget uint64) error {
	c := &s.cores
	for i := range c.ev {
		c.budget[i] = c.instr[i] + budget
		// Nothing is parked yet: a no-op event lets the loop start every
		// core the same way it resumes one.
		c.ev[i] = stepEvent{kind: evSync}
		c.key[i] = c.time[i]
		c.bound[i] = c.key[i]
		c.ahead[i] = 0
	}
	h := newCoreHeap(c.key, s.heapIdx)
	steps := 0
	for h.len() > 0 {
		i := int(h.peek())
		if err := s.commit(i); err != nil {
			return err
		}
		parked, n, err := s.runPrivate(i, steps)
		if err != nil {
			return err
		}
		steps = n
		if parked {
			if s.horizon == horizonBounded {
				s.rebound(i)
			}
			h.fix()
		} else {
			c.bound[i] = math.MaxUint64
			h.pop()
		}
	}
	s.mergeTouches()
	return nil
}

// runPrivate runs core i from its last commit until a step parks or
// the budget is spent, keeping the core's state in locals until then. A
// step whose core-local prefix (the reference, its gap, mapped-page
// translation, the private cache levels) retires it never leaves the
// loop; one that needs shared state parks its event in c.ev[i] under
// its pre-step clock c.key[i], with c.time[i] the post-gap clock. steps
// counts toward the next cancellation probe. A step translates a mapped
// page here only below the core's fault horizon; at or past it the step
// parks as an evTranslate right after its gap, and its commit translates
// and walks.
func (s *System) runPrivate(i, steps int) (parked bool, stepsOut int, err error) {
	c := &s.cores
	instr, now, budget := c.instr[i], c.time[i], c.budget[i]
	touches, fast, ahead := c.touchTotal[i], c.touchFast[i], c.ahead[i]
	synth, src, proc := c.synth[i], c.stream[i], c.proc[i]
	hKey, hID := s.horizonOf(i)
	epoch := s.nextEpoch  // only commits advance it
	l1 := s.hier.First(i) // nil when the first level is shared
	// A step whose phase boundary was just committed resumes past the
	// phase check, so one step fires at most one boundary.
	phaseDone := c.ev[i].kind == evPhase
	var ev stepEvent
	var key uint64
	for instr < budget {
		if steps++; steps >= ctxCheckInterval {
			steps = 0
			if cerr := s.runCtx.Err(); cerr != nil {
				err = fmt.Errorf("sim: run canceled: %w", cerr)
				break
			}
		}
		key = now
		if s.phaseOn && !phaseDone && s.phaseDue(i, instr) {
			// An allocation-phase boundary maps or frees memory
			// (ISA-Alloc/Free): the commit churns, then the step resumes.
			ev, parked = stepEvent{kind: evPhase}, true
			break
		}
		phaseDone = false
		var p uint64
		var write, replay bool
		if c.pendingValid[i] {
			// Replay the reference whose fault was committed. It neither
			// re-translates nor re-captures nor samples: the translate
			// commit accounted for all three.
			p, write, replay = c.pendingPhys[i], c.pendingWrite[i], true
			c.pendingValid[i] = false
		} else {
			var ref trace.Ref
			if synth != nil {
				ref = synth.Next()
			} else {
				ref = src.Next()
			}
			instr += ref.Gap
			now += ref.Gap * s.baseCPIx1000 / 1000
			var phys addr.Phys
			var onFast, ok bool
			if key < hKey || key == hKey && i < hID {
				phys, onFast, ok = s.os.TranslateMapped(proc, ref.VAddr)
			}
			if !ok {
				// At or past the horizon, or an unmapped page: the commit
				// translates at this step's position.
				ev, parked = stepEvent{kind: evTranslate, write: ref.Write, phys: ref.VAddr, gap: ref.Gap}, true
				break
			}
			p, write, ahead = uint64(phys), ref.Write, key+1
			touches++
			if onFast {
				fast++
			}
		}
		// The private walk: a first-level hit is the whole walk (level 0's
		// delta is 0), so it costs one probe; a miss hands the probe's
		// victim to the continuation.
		var stall uint64
		var hit bool
		var ops []hier.SharedOp
		if l1 != nil {
			var v cache.Victim
			var hv bool
			if hit, v, hv = l1.Access(p, write); !hit {
				stall, hit, ops = s.hier.MissPrivate(i, p, now, v, hv, c.ops[i][:0])
			}
		} else {
			stall, hit, ops = s.hier.AccessPrivate(i, p, write, now, c.ops[i][:0])
		}
		if !hit || len(ops) != 0 {
			c.ops[i] = ops
			ev, parked = stepEvent{kind: evWalk, write: write, replay: replay, phys: p, stall: stall}, true
			break
		}
		if now >= epoch && !replay {
			// The step may cross an epoch boundary. The bound can only lag
			// the true one (only commits advance it, and only those that
			// precede this step have run), so skipping the park is always
			// sound and parking is at worst spurious: the commit re-checks
			// and samples in exact step order.
			ev, parked = stepEvent{kind: evEpoch, stall: stall}, true
			break
		}
		now += stall
	}
	if parked {
		c.ev[i], c.key[i] = ev, key
	}
	c.instr[i], c.time[i] = instr, now
	c.touchTotal[i], c.touchFast[i], c.ahead[i] = touches, fast, ahead
	return parked, steps, err
}

// mergeTouches folds the run-ahead per-core mapped-translation tallies
// into the OS counters. The counts are commutative sums, so merging
// once per pass reproduces Translate's per-reference counting exactly.
func (s *System) mergeTouches() {
	c := &s.cores
	for i := range c.touchTotal {
		if c.touchTotal[i] != 0 {
			s.os.AddTouches(c.touchTotal[i], c.touchFast[i])
			c.touchTotal[i], c.touchFast[i] = 0, 0
		}
	}
}

// applyWalk charges a finished walk to core i and the memory system:
// spilled writebacks reserve device occupancy, the walk stall advances
// the core, and an LLC miss pays the controller's (MLP-divided)
// latency. It is the shared-state tail of every step that walks: commit
// runs it for parked walks and translated steps.
func (s *System) applyWalk(i int, p uint64, walkStall uint64, llcMiss bool, victims []hier.Victim) {
	c := &s.cores
	// Dirty victims that spilled past the LLC reach the memory system
	// at the walk time they were evicted; they reserve device occupancy
	// but charge the core nothing (see the internal/hier package
	// comment for why writebacks are modelled as free).
	for k := range victims {
		s.ctrl.Access(victims[k].Now, addr.Phys(victims[k].Addr), true)
	}
	c.time[i] += walkStall
	if !llcMiss {
		return
	}

	c.llcMisses[i]++
	res := s.ctrl.Access(c.time[i], addr.Phys(p), false)
	lat := res.Done - c.time[i]
	// An out-of-order core overlaps up to MaxMLP misses; the effective
	// stall per miss is the latency divided by the attainable overlap.
	stallCycles := lat / uint64(s.cfg.CPU.MaxMLP)
	c.time[i] += stallCycles
	c.memStall[i] += stallCycles
}

// # Step decomposition
//
// One simulated reference splits into a core-local prefix and a shared
// suffix. The prefix — reference generation, the instruction gap,
// mapped-page translation (osmodel.TranslateMapped) and the private
// cache levels — touches only per-core state, so it commutes across
// cores; runPrivate runs it in one loop per core. The loop probes the
// core's first-level cache (hier.First) itself: a hit is the whole
// private walk and retires with no further call, and a miss hands the
// probe's victim to hier.MissPrivate for the deeper private levels. A
// shared first level has no probe and walks through
// hier.AccessPrivate. A step that hits a private level with no spill
// into the shared levels retires in the loop. Everything else — the
// shared cache levels, the memory-system controller, the DRAM devices,
// page faults, allocation phases — parks as a stepEvent under the
// step's commit key (the core's pre-step clock) and runs when commit
// reaches it in (key, id) order (see execute). Translation is in the
// prefix only below the core's fault horizon (System.horizon; DESIGN.md
// §7). The horizon is +∞ when nothing can evict, and −∞ under AutoNUMA
// or trace capture, where every step but a post-fault replay parks at
// its translation. An evicting run bounds it per core: a step may
// translate ahead only while no other core can still commit an eviction
// before it.

// Event kinds (stepEvent.kind).
const (
	evSync      uint8 = iota // no step at all: a pass start
	evWalk                   // private walk spilled into the shared levels
	evTranslate              // translation at the commit: past the horizon, or an unmapped page
	evEpoch                  // fully-local step that may cross a timeline epoch; sample, then retire
	evPhase                  // allocation-phase boundary; the step resumes in runPrivate
)

// stepEvent is one core's parked shared-phase event. Its commit key
// lives beside it in coreSoA.key, where the heap compares it.
type stepEvent struct {
	kind  uint8
	write bool
	// replay marks an evWalk for a replayed post-fault reference. A step
	// samples the timeline at its translation, which replays skip, so
	// committing a replayed walk must not sample either.
	replay bool
	// phys is the demand physical address (evWalk) or the virtual
	// address to translate (evTranslate).
	phys uint64
	// stall is the private-prefix stall accrued so far (evWalk, evEpoch).
	stall uint64
	// gap is the reference's instruction gap (evTranslate), for capture.
	gap uint64
}

// commit executes core i's parked event at its (key, id) position. It
// is the only place shared simulation state (LLC, controller, devices,
// OS tables) mutates during a pass, and the only place timeline samples
// are taken.
func (s *System) commit(i int) error {
	c := &s.cores
	ev := &c.ev[i]
	switch ev.kind {
	case evSync:
		return nil
	case evPhase:
		if s.phaseChurn(i) {
			return s.evicted(i, -1)
		}
		return nil
	case evEpoch:
		if s.timelineOn {
			s.sampleTimeline(c.time[i])
		}
		// Retire the fully-local step deferred for sampling.
		c.time[i] += ev.stall
		return nil
	case evTranslate:
		if s.sinkOn {
			s.opts.TraceSink.Emit(i, trace.Ref{Gap: ev.gap, VAddr: ev.phys, Write: ev.write})
		}
		phys, stall, victim := s.os.TranslateVictim(c.proc[i], ev.phys, c.time[i])
		if victim >= 0 {
			if err := s.evicted(i, victim); err != nil {
				return err
			}
		}
		p := uint64(phys)
		if s.autoOn {
			s.auto.Tick(c.time[i])
		}
		if s.timelineOn {
			// c.time[i] is still the post-gap clock: sample before the
			// stall.
			s.sampleTimeline(c.time[i])
		}
		if stall > 0 {
			// The reference replays in runPrivate once the core is next
			// scheduled in time order.
			c.time[i] += stall
			c.faultCycles[i] += stall
			c.pendingValid[i] = true
			c.pendingPhys[i] = p
			c.pendingWrite[i] = ev.write
			return nil
		}
		walkStall, llcMiss, victims := s.hier.Access(i, p, ev.write, c.time[i])
		s.applyWalk(i, p, walkStall, llcMiss, victims)
		return nil
	}
	if s.timelineOn && !ev.replay {
		s.sampleTimeline(c.time[i])
	}
	stall, llcMiss, victims := s.hier.AccessShared(i, ev.write, c.ops[i], ev.stall, c.time[i])
	s.applyWalk(i, ev.phys, stall, llcMiss, victims)
	return nil
}

// phaseChurn models §III-B's time-varying memory demand: at each phase
// boundary the core alternately maps and frees a transient buffer just
// past its footprint, issuing ISA-Alloc/ISA-Free through the OS and
// letting Chameleon's segment groups switch modes mid-run. It is the
// commit of an evPhase, which runPrivate parks only when phaseDue, and
// it reports whether mapping the buffer evicted pages.
func (s *System) phaseChurn(i int) (evicted bool) {
	c := &s.cores
	c.phaseNext[i] += s.opts.PhaseEveryInstructions
	base := c.stream[i].Profile().FootprintBytes
	if c.phaseHeld[i] {
		s.os.FreeRange(c.proc[i], base, s.opts.PhaseAllocBytes, c.time[i])
		if c.look != nil {
			// The core's own pages lost their mapping; it re-bounds when
			// it parks.
			c.look[i].scan = c.look[i].head
		}
	} else {
		evicted = s.os.Map(c.proc[i], base, s.opts.PhaseAllocBytes, c.time[i]) > 0
	}
	c.phaseHeld[i] = !c.phaseHeld[i]
	return evicted
}

// phaseDue reports whether core i's next step, at instruction count
// instr, starts at an allocation phase boundary. It reads and arms only
// core-private state (the first boundary is set lazily, one period past
// the core's first step), so runPrivate can ask it without ordering.
func (s *System) phaseDue(i int, instr uint64) bool {
	c := &s.cores
	if c.phaseNext[i] == 0 {
		c.phaseNext[i] = instr + s.opts.PhaseEveryInstructions
		return false
	}
	return instr >= c.phaseNext[i]
}

func (s *System) collect(start, instr0, faults0 []uint64) *Result {
	r := &Result{
		Policy:   s.ctrl.Name(),
		Workload: s.runName,
		Ctrl:     s.ctrl.Stats(),
		OS:       s.os.Stats(),
	}
	for i := 0; i < s.hier.NumLevels(); i++ {
		r.Levels = append(r.Levels, LevelResult{Level: s.hier.LevelName(i), Stats: s.hier.LevelStats(i)})
	}
	logSum := 0.0
	var faultCycles, totalCycles uint64
	c := &s.cores
	for i := 0; i < c.n(); i++ {
		instr := c.instr[i] - instr0[i]
		cycles := c.time[i] - start[i]
		cr := CoreResult{
			Workload:     c.stream[i].Profile().Name,
			Instructions: instr,
			Cycles:       cycles,
			LLCMisses:    c.llcMisses[i],
			FaultCycles:  c.faultCycles[i] - faults0[i],
		}
		if cycles > 0 {
			cr.IPC = float64(instr) / float64(cycles)
		}
		if instr > 0 {
			cr.MPKI = float64(c.llcMisses[i]) / (float64(instr) / 1000)
		}
		r.Cores = append(r.Cores, cr)
		if cr.IPC > 0 {
			logSum += math.Log(cr.IPC)
		}
		faultCycles += cr.FaultCycles
		totalCycles += cycles
		if c.time[i] > r.MaxCycles {
			r.MaxCycles = c.time[i]
		}
	}
	if n := len(r.Cores); n > 0 {
		r.GeoMeanIPC = math.Exp(logSum / float64(n))
	}
	r.StackedHitRate = r.Ctrl.HitRate()
	r.AMAT = r.Ctrl.AMAT()
	if md, ok := s.ctrl.(policy.ModeDistribution); ok {
		r.CacheModeFraction = md.CacheModeFraction()
	}
	if totalCycles > 0 {
		r.CPUUtilization = 1 - float64(faultCycles)/float64(totalCycles)
	}
	if s.auto != nil {
		r.NUMATimeline = s.auto.Timeline()
	}
	r.Timeline = s.timeline
	s.collectTiers(r)
	return r
}

// MeasuredCycles is the measured run's length in cycles: from the phase
// barrier after warm-up to the last core's finish (MaxCycles counts
// warm-up too). Device counters are reset at the barrier, so energy and
// utilisation are taken over this window.
func (r *Result) MeasuredCycles() uint64 {
	var window uint64
	for _, c := range r.Cores {
		window = max(window, c.Cycles)
	}
	return window
}

// collectTiers fills the per-tier result namespaces: demand split,
// occupancy of each tier's OS home range (when the whole stack is
// OS-visible), energy per the tier's power profile and bandwidth
// utilisation over the measured window, and the raw device snapshot.
func (s *System) collectTiers(r *Result) {
	window := r.MeasuredCycles()
	var tierAcc []uint64
	if ta, ok := s.ctrl.(policy.TierAccounting); ok {
		tierAcc = ta.TierAccesses()
	}
	var stackBytes uint64
	for _, t := range s.tiers {
		stackBytes += t.Capacity()
	}
	osSeesStack := s.ctrl.OSVisibleBytes() == stackBytes
	var base uint64
	for i, t := range s.tiers {
		tr := TierResult{
			Tier:          t.Name(),
			Kind:          t.Kind,
			CapacityBytes: t.Capacity(),
			EnergyNJ:      t.Energy(window).TotalNJ(),
			Utilization:   t.Dev.BusyFraction(window),
			Device:        t.Dev.Snapshot(),
		}
		switch {
		case tierAcc != nil && i < len(tierAcc):
			tr.DemandAccesses = tierAcc[i]
		case i == 0:
			tr.DemandAccesses = r.Ctrl.FastHits
		case i == 1:
			tr.DemandAccesses = r.Ctrl.Accesses - r.Ctrl.FastHits
		}
		if osSeesStack && t.Capacity() > 0 {
			resident := s.os.ResidentBytesIn(base, base+t.Capacity())
			tr.Occupancy = float64(resident) / float64(t.Capacity())
		}
		base += t.Capacity()
		r.Tiers = append(r.Tiers, tr)
	}
}
