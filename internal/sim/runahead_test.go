package sim

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"chameleon/internal/config"
	"chameleon/internal/memtrace"
	"chameleon/internal/osmodel"
	"chameleon/internal/policy"
	"chameleon/internal/trace"
	"chameleon/internal/workload"
)

// baseOpts builds the standard options of the engine tests: the default
// machine, a footprint small enough that run-ahead translation is
// provably stable for every registered policy, and a policy-agnostic
// baseline capacity.
func baseOpts(t testing.TB, kind string) Options {
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
		BaselineBytes:      24 * config.GB / scale,
	}
}

// memSink records every emitted reference.
type memSink struct {
	cores []int
	refs  []trace.Ref
}

func (m *memSink) Begin(string, []trace.Profile) error { return nil }
func (m *memSink) Emit(core int, r trace.Ref) {
	m.cores = append(m.cores, core)
	m.refs = append(m.refs, r)
}

// variant is one feature dimension of an engine test, applied to
// baseOpts.
type variant struct {
	name   string
	mutate func(t testing.TB, o *Options)
}

// evictVariant oversubscribes physical memory so that CLOCK evicts on
// nearly every measured-run fault: it shrinks every memory tier 4x,
// skips prefaulting, and reshapes the reference stream into uniform
// scatter bursts (no hot region, no stream, high miss rate, short
// bursts), so the aggregate touched working set far exceeds physical
// memory.
var evictVariant = variant{name: "evict", mutate: func(t testing.TB, o *Options) {
	prof, err := workload.ByName("bwaves")
	if err != nil {
		t.Fatal(err)
	}
	// Scale(768) keeps the footprint within the plausibility bound
	// even for cache-mode policies whose OS-visible capacity excludes
	// the fast tier.
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
}}

// recordReplay captures the first instr instructions per core of o's
// run (warm-up dropped) into memory with memtrace.Writer, then points o
// at fresh replay cursors on the capture through Options.Sources. Replay sources
// are not synthetic streams, so the step loop reaches them through the
// trace.Source interface. The capture need not cover the run it feeds
// (replay wraps around), so it is kept short. A cursor is consumed by
// the run it feeds: record again for another run.
func recordReplay(t testing.TB, o *Options, instr uint64) {
	t.Helper()
	var buf bytes.Buffer
	w := memtrace.NewWriter(&buf)
	rec := *o
	rec.TraceSink = w
	rec.WarmupInstructions = 0
	sys, err := New(rec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(instr); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := memtrace.Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if o.Sources, err = tr.Sources(); err != nil {
		t.Fatal(err)
	}
	for i, src := range o.Sources {
		if _, ok := src.(*trace.Stream); ok {
			t.Fatalf("replay source %d is a synthetic stream", i)
		}
	}
}

// runAheadVariants are the feature dimensions the sequential engine's
// run-ahead must reproduce serial mode across: timeline sampling (the
// evEpoch parks), allocation churn (the evPhase parks at phase
// boundaries, here under sampling too), demand faulting (the
// evTranslate commits of unmapped pages), a consolidated mix (per-core
// spans that differ), a recorded trace replayed through Options.Sources
// (the non-synthetic Source.Next branch) and a shared first cache level
// (no first-level probe: every step's walk parks). Serial mode's own
// results are pinned by TestSerialDigestsPinned.
var runAheadVariants = []variant{
	{name: "base"},
	{name: "timeline", mutate: func(_ testing.TB, o *Options) {
		o.TimelineEpochCycles = 50_000
	}},
	{name: "churn", mutate: func(_ testing.TB, o *Options) {
		o.PhaseAllocBytes = 64 * config.KB
		o.PhaseEveryInstructions = 40_000
		o.TimelineEpochCycles = 100_000
	}},
	{name: "faults", mutate: func(_ testing.TB, o *Options) {
		o.SkipPrefault = true
	}},
	{name: "mix", mutate: func(t testing.TB, o *Options) {
		o.Mix = nil
		for _, name := range []string{"mcf", "miniGhost", "lbm"} {
			prof, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			o.Mix = append(o.Mix, prof.Scale(4*512))
		}
	}},
	{name: "replay", mutate: func(t testing.TB, o *Options) {
		recordReplay(t, o, 50_000)
	}},
	{name: "shared-l1", mutate: func(_ testing.TB, o *Options) {
		o.Config.CacheLevels = append([]config.CacheLevelConfig(nil), o.Config.CacheLevels...)
		o.Config.CacheLevels[0].Shared = true
	}},
}

// runSequential runs opts on the sequential engine, in run-ahead mode
// or with serial mode forced, and fails unless the options admit
// run-ahead (else the comparison would pit serial mode against itself).
func runSequential(t testing.TB, opts Options, instr uint64, serial bool) *Result {
	t.Helper()
	sys, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !sys.runAhead {
		t.Fatal("options do not admit run-ahead; the comparison would be vacuous")
	}
	if serial {
		sys.runAhead = false
	}
	res, err := sys.Run(instr)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunAheadMatchesSerial: run-ahead, which translates mapped pages
// in each core's private prefix and orders only shared events, must
// reproduce serial mode, which translates every reference at its
// commit in (time, id) order, bit for bit, for every registered policy.
func TestRunAheadMatchesSerial(t *testing.T) {
	for _, kind := range PolicyNames() {
		for _, v := range runAheadVariants {
			t.Run(kind+"/"+v.name, func(t *testing.T) {
				// Each run gets its own options: a replay's sources are
				// cursors that the run they feed consumes.
				opts := func() Options {
					o := baseOpts(t, kind)
					if v.mutate != nil {
						v.mutate(t, &o)
					}
					return o
				}
				serial := runSequential(t, opts(), 150_000, true)
				ahead := runSequential(t, opts(), 150_000, false)
				switch v.name {
				case "timeline", "churn":
					if len(serial.Timeline) == 0 {
						t.Fatal("no timeline points sampled; variant is not exercising sampling")
					}
				case "faults":
					if serial.OS.MinorFaults == 0 {
						t.Fatal("no faults in the measured run; variant is not exercising the fault path")
					}
				}
				if v.name == "churn" && serial.OS.FreedPages == 0 {
					t.Fatal("no churn buffer freed; variant is not exercising phase boundaries")
				}
				if !reflect.DeepEqual(serial, ahead) {
					t.Errorf("run-ahead diverged from serial mode:\nserial: %+v\nahead:  %+v", serial, ahead)
				}
			})
		}
	}
}

// FuzzRunAheadMatchesSerial widens TestRunAheadMatchesSerial over
// seeds, policies, workloads, churn periods and timeline epochs on a
// 4-core slice of the default machine, with synthetic streams or, when
// replay is set, a short capture of the same streams replayed through
// Options.Sources.
func FuzzRunAheadMatchesSerial(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint32(0), uint32(0), false)
	f.Add(uint64(7), uint8(3), uint8(2), uint32(15_000), uint32(30_000), false)
	f.Add(uint64(31), uint8(6), uint8(5), uint32(8_000), uint32(0), false)
	f.Add(uint64(99), uint8(7), uint8(1), uint32(0), uint32(8_000), false)
	f.Add(uint64(5), uint8(4), uint8(3), uint32(12_000), uint32(20_000), true)
	f.Add(uint64(64), uint8(1), uint8(0), uint32(0), uint32(0), true)
	policies := PolicyNames()
	workloads := []string{"mcf", "lbm", "bwaves", "hpccg", "comd", "miniGhost"}
	f.Fuzz(func(t *testing.T, seed uint64, policyPick, workloadPick uint8, churnEvery, epoch uint32, replay bool) {
		kind := policies[int(policyPick)%len(policies)]
		opts := baseOpts(t, kind)
		prof, err := workload.ByName(workloads[int(workloadPick)%len(workloads)])
		if err != nil {
			t.Fatal(err)
		}
		opts.Workload = prof.Scale(4 * 512)
		opts.Copies = 4
		opts.Seed = seed
		opts.WarmupInstructions = 20_000
		if every := uint64(churnEvery % 50_000); every >= 1_000 {
			opts.PhaseAllocBytes = 64 * config.KB
			opts.PhaseEveryInstructions = every
		}
		if e := uint64(epoch % 200_000); e >= 5_000 {
			opts.TimelineEpochCycles = e
		}
		serialOpts, aheadOpts := opts, opts
		if replay {
			recordReplay(t, &serialOpts, 20_000)
			recordReplay(t, &aheadOpts, 20_000)
		}
		serial := runSequential(t, serialOpts, 60_000, true)
		ahead := runSequential(t, aheadOpts, 60_000, false)
		if !reflect.DeepEqual(serial, ahead) {
			t.Errorf("%s/%s seed %d churn %d epoch %d replay %v: run-ahead diverged from serial mode",
				kind, opts.Workload.Name, seed, opts.PhaseEveryInstructions, opts.TimelineEpochCycles, replay)
		}
	})
}

// TestTranslationsStableCountsChurnBuffer: allocation churn maps a
// PhaseAllocBytes buffer past every core's footprint, so the stability
// bound must count it. The footprints here fit physical memory with a
// little slack, but footprint plus buffer does not.
func TestTranslationsStableCountsChurnBuffer(t *testing.T) {
	opts := baseOpts(t, string(PolicyChameleonOpt))
	sys, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !sys.translationsStable() {
		t.Fatal("the footprints alone must fit physical memory")
	}
	page := sys.os.Config().PageBytes
	var need uint64
	for _, src := range sys.cores.stream {
		need += (src.Profile().MaxVAddr()+page-1)/page + 2
	}
	slack := sys.os.Config().TotalBytes - need*page
	// Spread the slack over the cores' buffers, plus a page each: the
	// buffers alone then overrun the slack.
	opts.PhaseAllocBytes = slack/uint64(sys.cores.n()) + page
	opts.PhaseEveryInstructions = 40_000
	churn, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if churn.translationsStable() {
		t.Errorf("translationsStable ignored the %d-byte churn buffer of each of %d cores (slack %d bytes)",
			opts.PhaseAllocBytes, churn.cores.n(), slack)
	}
}

// TestRunAheadRefusesEviction: run-ahead relies on no page ever being
// evicted, so a fault that would evict must stop the run with an error
// rather than return a result built on stale translations. Forcing
// run-ahead on the evicting footprint reaches that guard for every
// registered policy.
func TestRunAheadRefusesEviction(t *testing.T) {
	for _, kind := range PolicyNames() {
		t.Run(kind, func(t *testing.T) {
			opts := baseOpts(t, kind)
			evictVariant.mutate(t, &opts)
			sys, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			sys.runAhead = true
			res, err := sys.Run(100_000)
			if err == nil {
				t.Fatalf("run-ahead over an evicting footprint returned a result (%d major faults)", res.OS.MajorFaults)
			}
			if !strings.Contains(err.Error(), "would evict a page") {
				t.Fatalf("error %q does not name the eviction guard", err)
			}
		})
	}
}

// TestRunAheadSelection pins which inputs admit run-ahead: stable
// translations with no AutoNUMA engine and no trace sink.
func TestRunAheadSelection(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy PolicyKind
		mutate func(*Options)
		want   bool
	}{
		{"stable", PolicyChameleonOpt, func(*Options) {}, true},
		{"trace sink", PolicyChameleonOpt, func(o *Options) { o.TraceSink = &memSink{} }, false},
		{"evictable", PolicyChameleonOpt, func(o *Options) { evictVariant.mutate(t, o) }, false},
		{"autonuma", PolicyNUMAFlat, func(o *Options) {
			o.AutoNUMA = &osmodel.AutoNUMAConfig{EpochCycles: 1_000_000, Threshold: 0.8, ScanPages: 4096}
		}, false},
	} {
		opts := baseOpts(t, string(tc.policy))
		tc.mutate(&opts)
		sys, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		if sys.runAhead != tc.want {
			t.Errorf("%s: runAhead = %v, want %v", tc.name, sys.runAhead, tc.want)
		}
	}
}

// TestStepLoopDoesNotAllocate pins the engine's steady-state step loop
// at zero allocations per reference, in run-ahead and in serial mode:
// once the system is prefaulted and the scratch buffers have grown to
// their working sizes, whole execute passes must not allocate. This is
// the package-level regression gate behind BenchmarkStep's allocs/op
// column.
func TestStepLoopDoesNotAllocate(t *testing.T) {
	for _, mode := range []struct {
		name     string
		runAhead bool
	}{{"run-ahead", true}, {"serial", false}} {
		t.Run(mode.name, func(t *testing.T) {
			opts := baseOpts(t, string(PolicyChameleonOpt))
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
