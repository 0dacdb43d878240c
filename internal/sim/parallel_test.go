package sim

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"chameleon/internal/config"
	"chameleon/internal/osmodel"
	"chameleon/internal/policy"
	"chameleon/internal/trace"
	"chameleon/internal/workload"
)

// parOpts builds the standard options for the parallel-equivalence
// runs: the default machine, a footprint small enough that run-ahead
// translation is provably stable for every registered policy, and a
// policy-agnostic baseline capacity.
func parOpts(t testing.TB, kind string, threads int) Options {
	t.Helper()
	const scale = 512
	prof, err := workload.ByName("bwaves")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default(scale)
	if desc, err := policy.Lookup(kind); err == nil {
		for cfg.NumTiers() < desc.RequiredTiers() {
			cfg = cfg.WithNVMTier(32 * config.GB / scale)
		}
	}
	return Options{
		Config:             cfg,
		Policy:             PolicyKind(kind),
		Workload:           prof.Scale(4 * scale),
		Seed:               29,
		WarmupInstructions: 100_000,
		Threads:            threads,
		BaselineBytes:      24 * config.GB / scale,
	}
}

// normEngine returns a copy of r with the run-provenance fields
// cleared. Engine/FallbackReason record which engine executed the run,
// so they legitimately differ between a Threads=1 and a Threads=8
// invocation even though every simulation counter is bit-identical;
// cross-engine DeepEqual comparisons must exclude them.
func normEngine(r *Result) *Result {
	c := *r
	c.Engine, c.FallbackReason = "", ""
	return &c
}

// memSink records every emitted reference for byte-identity checks.
type memSink struct {
	cores []int
	refs  []trace.Ref
}

func (m *memSink) Begin(string, []trace.Profile) error { return nil }
func (m *memSink) Emit(core int, r trace.Ref) {
	m.cores = append(m.cores, core)
	m.refs = append(m.refs, r)
}

// parVariant is one feature dimension of the equivalence matrix. Each
// variant exercises a distinct engine path: timeline drives the
// sequencer-side epoch sampling, capture drives the commit-ordered
// per-core ref rings, and evict oversubscribes physical memory so the
// engine must run in eviction-safe (generation-validated) mode.
type parVariant struct {
	name    string
	capture bool
	mutate  func(t testing.TB, o *Options)
}

var parVariants = []parVariant{
	{name: "base"},
	{name: "timeline", mutate: func(_ testing.TB, o *Options) {
		o.TimelineEpochCycles = 200_000
	}},
	{name: "capture", capture: true},
	{name: "evict", mutate: func(t testing.TB, o *Options) {
		// Shrink every memory tier 4x, skip prefaulting, and reshape
		// the reference stream into uniform scatter bursts (no hot
		// region, no stream, high miss rate, short bursts) so the
		// aggregate touched working set far exceeds physical memory:
		// CLOCK evicts on nearly every measured-run fault, run-ahead
		// translations race with page-table mutation constantly, and
		// the generation protocol is on the hot path.
		prof, err := workload.ByName("bwaves")
		if err != nil {
			t.Fatal(err)
		}
		// Scale(768) keeps the footprint within the plausibility bound
		// even for cache-mode policies whose OS-visible capacity
		// excludes the fast tier.
		o.Workload = prof.Scale(768)
		o.Workload.StreamFrac = 0
		o.Workload.HotFrac = 0
		o.Workload.TargetLLCMPKI = 60
		o.Workload.RefPKI = 150
		o.Workload.BurstLines = 4
		o.SkipPrefault = true
		for i := range o.Config.MemoryTiers {
			tier := &o.Config.MemoryTiers[i]
			if tier.DRAM != nil {
				tier.DRAM.CapacityBytes /= 4
			}
			if tier.NVM != nil {
				tier.NVM.CapacityBytes /= 4
			}
			if tier.CXL != nil {
				tier.CXL.CapacityBytes /= 4
			}
		}
		o.BaselineBytes /= 4
	}},
}

// runVariant builds and runs one cell of the matrix, asserting the
// engine-selection invariants along the way: stable-footprint variants
// must report the parallel engine at Threads>1, and the eviction
// variant may additionally land on the sequential auto-retry when a
// rare run-ahead collision is detected (still bit-identical).
func runVariant(t *testing.T, kind string, threads int, v parVariant) (*Result, *memSink) {
	t.Helper()
	opts := parOpts(t, kind, threads)
	var sink *memSink
	if v.capture {
		sink = &memSink{}
		opts.TraceSink = sink
	}
	if v.mutate != nil {
		v.mutate(t, &opts)
	}
	sys, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := threads > 1; sys.ParallelEnabled() != want {
		t.Fatalf("%s/%s: ParallelEnabled() = %v at %d threads, want %v",
			kind, v.name, sys.ParallelEnabled(), threads, want)
	}
	res, err := sys.Run(300_000)
	if err != nil {
		t.Fatal(err)
	}
	switch {
	case threads <= 1:
		if res.Engine != EngineSequential || res.FallbackReason != "" {
			t.Fatalf("%s/%s: sequential run reported %q/%q", kind, v.name, res.Engine, res.FallbackReason)
		}
	case v.name == "evict":
		parallel := res.Engine == EngineParallel && res.FallbackReason == ""
		retried := res.Engine == EngineSequential && res.FallbackReason == FallbackEvictionCollision
		if !parallel && !retried {
			t.Fatalf("%s/%s: threads=%d reported %q/%q", kind, v.name, threads, res.Engine, res.FallbackReason)
		}
	default:
		if res.Engine != EngineParallel || res.FallbackReason != "" {
			t.Fatalf("%s/%s: threads=%d reported %q/%q, want parallel engine",
				kind, v.name, threads, res.Engine, res.FallbackReason)
		}
	}
	return res, sink
}

// TestParallelEquivalence: the parallel engine must reproduce the
// sequential engine bit for bit — per-core results, device and policy
// counters, timeline points, captured traces, every statistic — for
// every registered policy at every thread count, across the feature
// matrix that used to force sequential fallbacks. The commit sequencer
// replays shared-phase events in the scheduler's exact (time, id)
// order, so whole runs are DeepEqual up to the Engine provenance
// fields.
func TestParallelEquivalence(t *testing.T) {
	for _, kind := range PolicyNames() {
		kind := kind
		for _, v := range parVariants {
			v := v
			t.Run(kind+"/"+v.name, func(t *testing.T) {
				seq, seqSink := runVariant(t, kind, 1, v)
				switch v.name {
				case "timeline":
					if len(seq.Timeline) == 0 {
						t.Fatal("no timeline points sampled; variant is not exercising sampling")
					}
				case "evict":
					if seq.OS.Evictions == 0 {
						t.Fatal("no evictions occurred; variant is not exercising eviction-safe mode")
					}
				}
				if v.capture && len(seqSink.refs) == 0 {
					t.Fatal("no references captured")
				}
				for _, threads := range []int{2, 4, 8} {
					par, parSink := runVariant(t, kind, threads, v)
					if !reflect.DeepEqual(normEngine(seq), normEngine(par)) {
						t.Errorf("threads=%d diverged from sequential:\nseq: %+v\npar: %+v",
							threads, seq, par)
					}
					if v.capture && !reflect.DeepEqual(seqSink, parSink) {
						t.Errorf("threads=%d captured trace differs from sequential", threads)
					}
				}
			})
		}
	}
}

// TestParallelEquivalenceFaults repeats the equivalence check with
// prefaulting disabled, so every page is demand-faulted mid-run and the
// sequencer's fault-commit path (full Translate, pending-replay parking)
// is exercised rather than just the mapped read path.
func TestParallelEquivalenceFaults(t *testing.T) {
	opts := parOpts(t, string(PolicyChameleonOpt), 1)
	opts.SkipPrefault = true
	seq := runFaults(t, opts)
	if seq.OS.MinorFaults == 0 {
		t.Fatal("no faults occurred; the test is not exercising the fault path")
	}
	for _, threads := range []int{2, 4, 8} {
		opts := parOpts(t, string(PolicyChameleonOpt), threads)
		opts.SkipPrefault = true
		par := runFaults(t, opts)
		if !reflect.DeepEqual(normEngine(seq), normEngine(par)) {
			t.Errorf("threads=%d diverged from sequential under demand faulting", threads)
		}
	}
}

func runFaults(t *testing.T, opts Options) *Result {
	t.Helper()
	sys, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(300_000)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestParallelEngineSelection pins the engine-selection contract:
// trace capture and timeline sampling — the classes PR 7 forced onto
// the sequential engine — now run parallel with identical results and
// byte-identical captures, while the two remaining structural
// fallbacks (allocation-churn phases, AutoNUMA) are reported through
// Result.Engine/FallbackReason instead of silently serializing.
func TestParallelEngineSelection(t *testing.T) {
	t.Run("capture+timeline stays parallel", func(t *testing.T) {
		run := func(threads int) (*Result, *memSink) {
			opts := parOpts(t, string(PolicyChameleonOpt), threads)
			sink := &memSink{}
			opts.TraceSink = sink
			opts.TimelineEpochCycles = 200_000
			sys, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			if want := threads > 1; sys.ParallelEnabled() != want {
				t.Fatalf("threads=%d: ParallelEnabled() = %v, want %v", threads, sys.ParallelEnabled(), want)
			}
			res, err := sys.Run(300_000)
			if err != nil {
				t.Fatal(err)
			}
			return res, sink
		}
		seqRes, seqSink := run(0)
		parRes, parSink := run(8)
		if parRes.Engine != EngineParallel {
			t.Errorf("capture+timeline at 8 threads reported %q, want parallel", parRes.Engine)
		}
		if !reflect.DeepEqual(normEngine(seqRes), normEngine(parRes)) {
			t.Error("threaded capture+timeline run diverged from Threads=0 run")
		}
		if len(seqSink.refs) == 0 {
			t.Fatal("no references captured")
		}
		if !reflect.DeepEqual(seqSink, parSink) {
			t.Error("captured traces differ between Threads=0 and threaded runs")
		}
		if len(seqRes.Timeline) == 0 {
			t.Error("no timeline points sampled")
		}
	})

	t.Run("alloc phases fall back", func(t *testing.T) {
		opts := parOpts(t, string(PolicyChameleonOpt), 8)
		opts.PhaseAllocBytes = opts.Config.TotalCapacity() / 48
		opts.PhaseEveryInstructions = 50_000
		sys, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		if sys.ParallelEnabled() {
			t.Fatal("allocation-churn phases must force the sequential engine")
		}
		res, err := sys.Run(300_000)
		if err != nil {
			t.Fatal(err)
		}
		if res.Engine != EngineSequential || res.FallbackReason != FallbackAllocPhases {
			t.Errorf("reported %q/%q, want %q/%q",
				res.Engine, res.FallbackReason, EngineSequential, FallbackAllocPhases)
		}
	})

	t.Run("autonuma falls back", func(t *testing.T) {
		opts := parOpts(t, string(PolicyNUMAFlat), 8)
		opts.AutoNUMA = &osmodel.AutoNUMAConfig{
			EpochCycles: 1_000_000,
			Threshold:   0.8,
			ScanPages:   4096,
		}
		sys, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		if sys.ParallelEnabled() {
			t.Fatal("AutoNUMA must force the sequential engine")
		}
		res, err := sys.Run(300_000)
		if err != nil {
			t.Fatal(err)
		}
		if res.Engine != EngineSequential || res.FallbackReason != FallbackAutoNUMA {
			t.Errorf("reported %q/%q, want %q/%q",
				res.Engine, res.FallbackReason, EngineSequential, FallbackAutoNUMA)
		}
	})
}

// TestStepLoopDoesNotAllocate pins the sequential engine's steady-state
// step loop at zero allocations per reference, in run-ahead and in
// serial mode: once the system is prefaulted and the scratch buffers
// have grown to their working sizes, whole execute passes must not
// allocate. This is the package-level regression gate behind
// BenchmarkStep's allocs/op column.
func TestStepLoopDoesNotAllocate(t *testing.T) {
	for _, mode := range []struct {
		name     string
		runAhead bool
	}{{"run-ahead", true}, {"serial", false}} {
		t.Run(mode.name, func(t *testing.T) {
			opts := parOpts(t, string(PolicyChameleonOpt), 1)
			opts.WarmupInstructions = 0
			sys, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			if !sys.runAhead {
				t.Fatal("options do not admit run-ahead")
			}
			sys.runAhead = mode.runAhead
			sys.ran = true
			sys.runCtx = context.Background()
			if err := sys.prefault(context.Background()); err != nil {
				t.Fatal(err)
			}
			// One warm pass settles caches, remap metadata and scratch buffers.
			if err := sys.execute(100_000); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(5, func() {
				if err := sys.execute(20_000); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("steady-state execute pass allocated %.1f times, want 0", allocs)
			}
		})
	}
}

// TestThreadBudget pins the one per-simulation thread rule every driver
// uses: 0 or 1 is sequential, an explicit request is capped at
// GOMAXPROCS/concurrent and floored at 1.
func TestThreadBudget(t *testing.T) {
	requested := []int{0, 1, 2, 8}
	concurrent := []int{1, 2, 4}
	// want[procs][i][j] is the budget for requested[i] with
	// concurrent[j] runs in flight.
	want := map[int][4][3]int{
		1: {{1, 1, 1}, {1, 1, 1}, {1, 1, 1}, {1, 1, 1}},
		2: {{1, 1, 1}, {1, 1, 1}, {2, 1, 1}, {2, 1, 1}},
		8: {{1, 1, 1}, {1, 1, 1}, {2, 2, 2}, {8, 4, 2}},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for i, r := range requested {
			for j, c := range concurrent {
				if got := ThreadBudget(r, c); got != want[procs][i][j] {
					t.Errorf("GOMAXPROCS=%d: ThreadBudget(%d, %d) = %d, want %d", procs, r, c, got, want[procs][i][j])
				}
			}
		}
	}
}
