// Package sim is the discrete-event timing simulator that ties the
// substrates together: synthetic cores drive reference streams through
// a configurable N-level cache hierarchy (internal/hier; the default
// reproduces the paper's three levels) and the configured heterogeneous
// memory-system controller, with OS demand paging (and optional
// AutoNUMA migration) in the translation path.
//
// The simulator executes steps in one global order: (pre-step clock,
// core id), which keeps memory-system arrivals near time order while
// avoiding a full event queue. Only steps that touch shared state need
// that order. A step that stays in a core's private state (its reference
// stream, mapped-page translation, private caches) commutes with every
// other core's steps, so the engine runs such steps straight through and
// orders only the shared events, with a heap on one goroutine. One
// simulation uses one goroutine; throughput comes from running many
// simulations at once (matrix cells, DSE cells, chamd workers).
package sim

import (
	"context"
	"fmt"
	"math"
	"strings"

	"chameleon/internal/addr"
	"chameleon/internal/config"
	"chameleon/internal/hier"
	"chameleon/internal/memtier"
	"chameleon/internal/osmodel"
	"chameleon/internal/policy"
	"chameleon/internal/trace"
)

// PolicyKind names the memory-system design under test. Any name
// registered with policy.Register is valid; the constants below cover
// the designs of the paper's evaluation.
type PolicyKind string

// The memory-system designs of the paper's evaluation.
const (
	PolicyFlat         PolicyKind = "flat"          // DDR-only baseline (BaselineBytes capacity)
	PolicyNUMAFlat     PolicyKind = "numa-flat"     // OS-managed heterogeneous memory
	PolicyAlloy        PolicyKind = "alloy"         // latency-optimised DRAM cache
	PolicyPoM          PolicyKind = "pom"           // hardware-managed part of memory
	PolicyCAMEO        PolicyKind = "cameo"         // 64 B congruence-group PoM variant
	PolicyPolymorphic  PolicyKind = "polymorphic"   // Chung et al. polymorphic memory
	PolicyChameleon    PolicyKind = "chameleon"     // basic co-design
	PolicyChameleonOpt PolicyKind = "chameleon-opt" // proactive-remapping co-design
)

func (k PolicyKind) String() string { return string(k) }

// PolicyNames returns every registered design name, sorted.
func PolicyNames() []string { return policy.Names() }

// Options configures one simulation.
type Options struct {
	Config   config.Config
	Policy   PolicyKind
	Workload trace.Profile
	// Copies is the number of application instances (default: one per
	// core, the paper's rate mode).
	Copies int
	// BaselineBytes is the total capacity of a PolicyFlat system (e.g.
	// 20 GB or 24 GB). Ignored for other policies.
	BaselineBytes uint64
	// Alloc overrides the OS frame-allocation policy. Default:
	// first-touch for PolicyNUMAFlat, shuffled otherwise.
	Alloc *osmodel.AllocPolicy
	// AutoNUMA attaches the migration engine (PolicyNUMAFlat only).
	AutoNUMA *osmodel.AutoNUMAConfig
	// Prefault eagerly maps every process's footprint before the
	// measured run, modelling the paper's fast-forward to the region
	// of interest. Default true (set SkipPrefault to disable).
	SkipPrefault bool
	// WarmupInstructions are executed per core before statistics are
	// reset, warming caches and remapping state.
	WarmupInstructions uint64
	// UseTHP backs processes with 2 MB transparent huge pages instead
	// of 4 KB pages (Algorithm 1's GFP_TRANSHUGE path: one page
	// allocation issues SegBytes-granularity ISA notifications for the
	// whole huge page).
	UseTHP bool
	// Mix assigns per-core workloads (core i runs Mix[i mod len]),
	// modelling a consolidated multi-programmed machine instead of the
	// paper's rate mode. When set, Workload is ignored except as a
	// fallback for validation.
	Mix []trace.Profile
	// TimelineEpochCycles, when non-zero, records a TimelinePoint every
	// epoch of simulated time (mode distribution and cumulative hit
	// rate over the measured run).
	TimelineEpochCycles uint64
	// PhaseAllocBytes / PhaseEveryInstructions model the allocation
	// churn of §III-B: every PhaseEveryInstructions instructions each
	// core alternately allocates and frees a PhaseAllocBytes transient
	// buffer, driving ISA-Alloc/ISA-Free (and Chameleon mode
	// transitions) during the measured run.
	PhaseAllocBytes        uint64
	PhaseEveryInstructions uint64
	// Seed makes the run deterministic.
	Seed uint64
	// Deprecated: ignored; the simulator has one engine. The field
	// remains only because cmd/chameleon-bench still sets it.
	Threads int
	// TraceSink, when non-nil, receives every per-core reference the
	// run consumes — warm-up included — in consumption order, making
	// the run recordable (see internal/memtrace.Writer). Begin is
	// called once during New with the resolved per-core profiles. Emit
	// is invoked on the goroutine that calls Run, in commit order.
	TraceSink trace.Sink `json:"-"`
	// Sources supplies pre-built per-core reference streams: core i
	// runs Sources[i], overriding the synthetic Workload/Mix/Copies
	// stream construction (each source's Profile still validates, names
	// the core's results and sizes prefaulting). This is how a recorded
	// trace replays as a first-class workload; Mix cannot be combined
	// with it.
	Sources []trace.Source `json:"-"`
	// Progress, when non-nil, receives every TimelinePoint as it is
	// sampled during the measured run (requires TimelineEpochCycles).
	// Like TraceSink.Emit it is invoked on the goroutine that calls Run,
	// in commit order. Long-running or blocking callbacks slow the
	// simulation down.
	Progress func(TimelinePoint) `json:"-"`
}

// coreSoA holds per-core state in struct-of-arrays layout, indexed by
// core id. The step loop touches time/instr/budget for every simulated
// reference; keeping the hot fields in dense parallel slices puts the
// whole scheduler working set on a handful of cache lines instead of
// chasing one heap object per core.
type coreSoA struct {
	stream []trace.Source
	synth  []*trace.Stream // stream[i] when synthetic (else nil): a direct Next call
	proc   []*osmodel.Process

	time   []uint64
	instr  []uint64
	budget []uint64

	llcMisses   []uint64
	faultCycles []uint64
	memStall    []uint64

	// A page-fault stall advances a core's clock far beyond its peers;
	// the faulting reference is parked here and replayed when the core
	// is next scheduled in time order, so its access does not reserve
	// device queues deep in the simulated future.
	pendingValid []bool
	pendingPhys  []uint64
	pendingWrite []bool

	// Allocation-churn phase state (Options.PhaseAllocBytes).
	phaseNext []uint64 // instruction count of the next phase boundary
	phaseHeld []bool   // transient buffer currently allocated

	// touchTotal/touchFast accumulate the stacked-node access counts of
	// run-ahead TranslateMapped calls per core (a commutative sum a
	// translate commit bumps inside osmodel directly); mergeTouches folds
	// them into the OS at the end of every pass.
	touchTotal []uint64
	touchFast  []uint64

	// Fault-horizon state (see System.horizon). bound[i] is a lower bound
	// on the commit key of core i's next step that can evict a page (the
	// core id breaks ties); ahead[i] is one more than the key of core i's
	// latest run-ahead translation in the pass, 0 for none; look[i] is
	// core i's lookahead, allocated only under horizonBounded.
	bound []uint64
	ahead []uint64
	look  []lookahead

	// The parked event of each core (see stepEvent): its commit key (the
	// pre-step clock the heap orders by), the event, and the
	// deferred shared-phase ops of its private walk.
	key []uint64
	ev  []stepEvent
	ops [][]hier.SharedOp
}

func newCoreSoA(n int) coreSoA {
	return coreSoA{
		stream:       make([]trace.Source, n),
		synth:        make([]*trace.Stream, n),
		proc:         make([]*osmodel.Process, n),
		time:         make([]uint64, n),
		instr:        make([]uint64, n),
		budget:       make([]uint64, n),
		llcMisses:    make([]uint64, n),
		faultCycles:  make([]uint64, n),
		memStall:     make([]uint64, n),
		pendingValid: make([]bool, n),
		pendingPhys:  make([]uint64, n),
		pendingWrite: make([]bool, n),
		phaseNext:    make([]uint64, n),
		phaseHeld:    make([]bool, n),
		touchTotal:   make([]uint64, n),
		touchFast:    make([]uint64, n),
		bound:        make([]uint64, n),
		ahead:        make([]uint64, n),
		key:          make([]uint64, n),
		ev:           make([]stepEvent, n),
		ops:          make([][]hier.SharedOp, n),
	}
}

// n returns the core count.
func (c *coreSoA) n() int { return len(c.time) }

// System is one fully constructed simulation.
type System struct {
	opts  Options
	cfg   config.Config
	tiers []*memtier.Tier
	ctrl  policy.Controller
	os    *osmodel.OS
	auto  *osmodel.AutoNUMA
	hier  *hier.Hierarchy
	cores coreSoA

	// heapIdx is the scheduler heap's reusable index storage, sized at
	// construction so execute passes allocate nothing.
	heapIdx []int32
	// horizon says how far ahead of the commit order runPrivate may
	// translate mapped pages: without bound when translations are stable,
	// never when an AutoNUMA engine or a trace sink observes every
	// translation, and up to each core's fault horizon otherwise (see
	// horizonMode). Fixed at construction.
	horizon horizonMode

	// runName is the result's workload label, fixed at construction:
	// the profile name, the "+"-joined mix, or a replayed trace's
	// recorded run name.
	runName string

	baseCPIx1000 uint64

	// ran latches after the first Run/RunContext call: the caches,
	// remapping tables and OS state carry that run's history, so a
	// second run on the same System would silently measure a warmed,
	// partially-consumed machine.
	ran    bool
	runCtx context.Context

	// Hot-path guards, fixed at construction so runPrivate and commit
	// pay one bool test instead of re-deriving each condition per
	// reference.
	phaseOn    bool // allocation-churn phases configured
	timelineOn bool // timeline sampling configured
	autoOn     bool // AutoNUMA engine attached
	sinkOn     bool // trace capture attached

	// nextEpoch is the next timeline-epoch boundary (MaxUint64 outside
	// sampled runs); only commits advance it (sampleTimeline).
	nextEpoch uint64
	timeline  []TimelinePoint
}

// TimelinePoint is one sample of the optional run timeline.
type TimelinePoint struct {
	Cycle             uint64
	StackedHitRate    float64 // cumulative over the measured run
	CacheModeFraction float64
}

// New constructs a simulation from the options.
func New(opts Options) (*System, error) {
	cfg := opts.Config
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(opts.Sources) > 0 {
		if len(opts.Mix) > 0 {
			return nil, fmt.Errorf("sim: Sources and Mix are mutually exclusive")
		}
		if opts.Workload.Name == "" {
			opts.Workload = opts.Sources[0].Profile()
		}
		for i, src := range opts.Sources {
			if err := src.Profile().Validate(); err != nil {
				return nil, fmt.Errorf("sim: source %d: %w", i, err)
			}
		}
	}
	if err := opts.Workload.Validate(); err != nil {
		return nil, err
	}
	copies := opts.Copies
	if copies <= 0 {
		copies = cfg.CPU.Cores
	}
	if len(opts.Mix) > 0 {
		copies = min(max(copies, len(opts.Mix)), cfg.CPU.Cores)
		opts.Workload = opts.Mix[0]
		for _, p := range opts.Mix {
			if err := p.Validate(); err != nil {
				return nil, err
			}
		}
	}
	if len(opts.Sources) > 0 {
		// A replayed trace fixes the core count: one recorded stream
		// each, regardless of Copies.
		copies = len(opts.Sources)
	}
	if copies > cfg.CPU.Cores {
		return nil, fmt.Errorf("sim: %d copies exceed %d cores", copies, cfg.CPU.Cores)
	}

	s := &System{opts: opts, cfg: cfg,
		baseCPIx1000: uint64(math.Round(cfg.CPU.BaseCPI * 1000)),
		phaseOn:      opts.PhaseEveryInstructions > 0 && opts.PhaseAllocBytes > 0,
		timelineOn:   opts.TimelineEpochCycles > 0,
		nextEpoch:    math.MaxUint64,
	}

	desc, err := policy.Lookup(string(opts.Policy))
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if cfg.NumTiers() < desc.RequiredTiers() {
		return nil, fmt.Errorf("sim: policy %q needs %d memory tiers, config has %d",
			opts.Policy, desc.RequiredTiers(), cfg.NumTiers())
	}
	tierCfgs := config.CloneTiers(cfg.MemoryTiers)
	if desc.RequiresBaseline {
		if opts.BaselineBytes == 0 {
			return nil, fmt.Errorf("sim: policy %q requires BaselineBytes", opts.Policy)
		}
		tierCfgs[1].SetCapacity(opts.BaselineBytes)
	}
	if s.tiers, err = memtier.BuildStack(tierCfgs, cfg.CPU.FreqHz); err != nil {
		return nil, err
	}
	tms := make([]policy.TierMem, len(s.tiers))
	for i, t := range s.tiers {
		tms[i] = policy.TierMem{Name: t.Name(), Kind: t.Kind, CapacityBytes: t.Capacity(), Mem: t.Dev}
	}
	if s.ctrl, err = desc.Build(policy.BuildContext{
		Config:        cfg,
		Tiers:         tms,
		BaselineBytes: opts.BaselineBytes,
	}); err != nil {
		return nil, err
	}

	// OS over the controller's visible space. Hardware-managed designs
	// appear to the OS as a single node; OS-managed designs expose two.
	pageBytes := uint64(cfg.OS.PageBytes)
	if opts.UseTHP {
		pageBytes = uint64(cfg.OS.HugePageBytes)
	}
	osCfg := osmodel.Config{
		TotalBytes:      s.ctrl.OSVisibleBytes(),
		PageBytes:       pageBytes,
		SegBytes:        desc.ISASegBytes(cfg),
		PageFaultCycles: cfg.OS.PageFaultCycles,
		Alloc:           osmodel.AllocShuffled,
		Seed:            opts.Seed + 1,
	}
	if desc.OSManaged {
		osCfg.FastBytes = cfg.TierCapacity(0)
		osCfg.Alloc = osmodel.AllocFirstTouch
		if opts.AutoNUMA != nil {
			// See osmodel.AllocSlowFirst: the stacked node must retain
			// free frames for the migration race of Figure 2c.
			osCfg.Alloc = osmodel.AllocSlowFirst
		}
		if cfg.NumTiers() > 2 {
			// Deeper stacks expose every tier as its own NUMA node (the
			// two-tier case keeps the FastBytes spelling so the classic
			// engine stays bit-identical).
			nodes := make([]uint64, cfg.NumTiers())
			for i := range nodes {
				nodes[i] = cfg.TierCapacity(i)
			}
			osCfg.NodeBytes = nodes
		}
	}
	if opts.Alloc != nil {
		osCfg.Alloc = *opts.Alloc
	}
	if osCfg.Alloc == osmodel.AllocGroupAware {
		sp, err := addr.NewSpace(cfg.TierCapacity(0), cfg.TierCapacity(1), uint64(cfg.MemSys.SegmentBytes))
		if err != nil {
			return nil, err
		}
		osCfg.Space = sp
	}
	var notifier osmodel.Notifier
	if osCfg.SegBytes != 0 {
		notifier = s.ctrl
	}
	if s.os, err = osmodel.New(osCfg, notifier); err != nil {
		return nil, err
	}
	if opts.AutoNUMA != nil {
		if !desc.OSManaged {
			return nil, fmt.Errorf("sim: AutoNUMA requires an OS-managed policy (e.g. numa-flat)")
		}
		s.auto = s.os.EnableAutoNUMA(*opts.AutoNUMA)
		s.autoOn = true
	}

	if s.hier, err = hier.New(cfg.CacheLevels, copies); err != nil {
		return nil, err
	}
	var perProc uint64
	s.cores = newCoreSoA(copies)
	s.heapIdx = make([]int32, 0, copies)
	for i := range s.cores.ops {
		s.cores.ops[i] = make([]hier.SharedOp, 0, s.hier.MaxOpsPerWalk())
	}
	for i := 0; i < copies; i++ {
		var src trace.Source
		if len(opts.Sources) > 0 {
			src = opts.Sources[i]
		} else {
			prof := opts.Workload
			if len(opts.Mix) > 0 {
				prof = opts.Mix[i%len(opts.Mix)]
			}
			st, err := trace.NewStream(prof, opts.Seed+uint64(i)*7919+13)
			if err != nil {
				return nil, err
			}
			src = st
		}
		perProc = max(perProc, src.Profile().FootprintBytes)
		s.cores.stream[i] = src
		s.cores.synth[i], _ = src.(*trace.Stream)
		s.cores.proc[i] = s.os.NewProcess()
	}
	if uint64(copies)*perProc > osCfg.TotalBytes*4 {
		return nil, fmt.Errorf("sim: footprint %d x%d implausibly exceeds capacity %d", perProc, copies, osCfg.TotalBytes)
	}
	s.runName = opts.Workload.Name
	if len(opts.Mix) > 0 {
		// A consolidated mix has no single name; join the mix entries
		// in assignment order so the result names every application.
		names := make([]string, len(opts.Mix))
		for i, p := range opts.Mix {
			names[i] = p.Name
		}
		s.runName = strings.Join(names, "+")
	}
	if opts.TraceSink != nil {
		profs := make([]trace.Profile, s.cores.n())
		for i := range profs {
			profs[i] = s.cores.stream[i].Profile()
		}
		if err := opts.TraceSink.Begin(s.runName, profs); err != nil {
			return nil, fmt.Errorf("sim: trace sink: %w", err)
		}
		s.sinkOn = true
	}
	switch {
	case s.autoOn || s.sinkOn:
		s.setHorizon(horizonNone)
	case s.translationsStable():
		s.setHorizon(horizonOpen)
	default:
		s.setHorizon(horizonBounded)
	}
	return s, nil
}

// translationsStable reports whether run-ahead translation is trivially
// safe: no page eviction can ever occur, because every process's whole
// virtual span — its reference span plus, under allocation churn, the
// transient buffer phaseChurn maps past its footprint — fits in
// physical memory simultaneously. Evictions are the only cross-process
// page-table mutation, so under this bound no other core's commit can
// change what a run-ahead TranslateMapped read returns, and the fault
// horizon is unbounded. When the bound does not hold, each core's
// horizon is bounded by the other cores' next possible faults.
func (s *System) translationsStable() bool {
	page := s.os.Config().PageBytes
	var need uint64
	for _, src := range s.cores.stream {
		need += (src.Profile().MaxVAddr()+page-1)/page + 2
		if s.phaseOn {
			need += (s.opts.PhaseAllocBytes+page-1)/page + 1
		}
	}
	return need*page <= s.os.Config().TotalBytes
}

// Controller exposes the memory-system controller (for tests).
func (s *System) Controller() policy.Controller { return s.ctrl }

// Tiers exposes the built memory stack (nearest first) for per-tier
// reporting.
func (s *System) Tiers() []*memtier.Tier { return s.tiers }

// OS exposes the operating-system model (for tests and experiments).
func (s *System) OS() *osmodel.OS { return s.os }
