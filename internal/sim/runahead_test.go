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
// skips prefaulting, and reshapes the run's workload (bwaves under
// baseOpts) into uniform scatter bursts (no hot region, no stream, high
// miss rate, short bursts), so the aggregate touched working set far
// exceeds physical memory. Such a run is bounded by the fault horizon.
var evictVariant = variant{name: "evict", mutate: func(t testing.TB, o *Options) {
	prof, err := workload.ByName(o.Workload.Name)
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
// (the non-synthetic Source.Next branch), a shared first cache level
// (no first-level probe: every step's walk parks) and an evicting
// footprint (the bounded fault horizon). Serial mode's own results are
// pinned by TestSerialDigestsPinned.
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
	evictVariant,
}

// runSequential runs opts at the fault horizon New picks for them, or
// at −∞ (serial mode) when serial is set, and fails when the options
// already run at −∞ (the comparison would pit serial mode against
// itself).
func runSequential(t testing.TB, opts Options, instr uint64, serial bool) *Result {
	t.Helper()
	sys, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if sys.horizon == horizonNone {
		t.Fatal("options run at horizon −∞; the comparison would be vacuous")
	}
	if serial {
		sys.setHorizon(horizonNone)
	}
	res, err := sys.Run(instr)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunAheadMatchesSerial: run-ahead, which translates mapped pages
// in each core's private prefix below its fault horizon and orders only
// shared events, must reproduce serial mode, which translates every
// reference at its commit in (time, id) order, bit for bit, for every
// registered policy. The evict variant runs at a bounded horizon, every
// other one at +∞.
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
				case "evict":
					if serial.OS.MajorFaults == 0 {
						t.Fatal("no major faults in the measured run; variant is not exercising the horizon")
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
// Options.Sources. evict reshapes the run as evictVariant does, on
// every core of the machine, so that all workloads but mcf, whose
// footprint still fits, run at a bounded fault horizon.
func FuzzRunAheadMatchesSerial(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint32(0), uint32(0), false, false)
	f.Add(uint64(7), uint8(3), uint8(2), uint32(15_000), uint32(30_000), false, false)
	f.Add(uint64(31), uint8(6), uint8(5), uint32(8_000), uint32(0), false, false)
	f.Add(uint64(99), uint8(7), uint8(1), uint32(0), uint32(8_000), false, false)
	f.Add(uint64(5), uint8(4), uint8(3), uint32(12_000), uint32(20_000), true, false)
	f.Add(uint64(64), uint8(1), uint8(0), uint32(0), uint32(0), true, false)
	f.Add(uint64(3), uint8(0), uint8(2), uint32(0), uint32(0), false, true)
	f.Add(uint64(17), uint8(5), uint8(1), uint32(9_000), uint32(25_000), false, true)
	f.Add(uint64(42), uint8(8), uint8(3), uint32(0), uint32(10_000), true, true)
	f.Add(uint64(11), uint8(2), uint8(5), uint32(20_000), uint32(0), false, true)
	policies := PolicyNames()
	workloads := []string{"mcf", "lbm", "bwaves", "hpccg", "comd", "miniGhost"}
	f.Fuzz(func(t *testing.T, seed uint64, policyPick, workloadPick uint8, churnEvery, epoch uint32, replay, evict bool) {
		kind := policies[int(policyPick)%len(policies)]
		opts := baseOpts(t, kind)
		prof, err := workload.ByName(workloads[int(workloadPick)%len(workloads)])
		if err != nil {
			t.Fatal(err)
		}
		opts.Workload = prof.Scale(4 * 512)
		opts.Copies = 4
		if evict {
			// On four cores every reshaped footprint fits.
			evictVariant.mutate(t, &opts)
			opts.Copies = 0
		}
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
			t.Errorf("%s/%s seed %d churn %d epoch %d replay %v evict %v: run-ahead diverged from serial mode",
				kind, opts.Workload.Name, seed, opts.PhaseEveryInstructions, opts.TimelineEpochCycles, replay, evict)
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

// TestRunAheadRefusesEviction: the commit-time guard stops a run whose
// cores translated ahead past an evicting commit, rather than return a
// result built on stale translations. Forcing horizon +∞ on the
// evicting footprint reaches that guard for every registered policy.
func TestRunAheadRefusesEviction(t *testing.T) {
	for _, kind := range PolicyNames() {
		t.Run(kind, func(t *testing.T) {
			opts := baseOpts(t, kind)
			evictVariant.mutate(t, &opts)
			sys, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			sys.setHorizon(horizonOpen)
			res, err := sys.Run(100_000)
			if err == nil {
				t.Fatalf("run-ahead at +∞ over an evicting footprint returned a result (%d major faults)", res.OS.MajorFaults)
			}
			if !strings.Contains(err.Error(), "violating the fault horizon") {
				t.Fatalf("error %q does not name the horizon guard", err)
			}
		})
	}
}

// TestEvictionReboundsVictim: a core's fault bound stays a lower bound
// only while the pages its lookahead scanned as mapped stay mapped, so
// a commit that takes one of them must lower the owner's bound to that
// reference's step. Here core 0's lookahead is scanned over a
// prefaulted footprint, at a bounded horizon forced on a footprint that
// fits, so every queued page is mapped; one of them is then unmapped
// and reported as core 1's eviction.
func TestEvictionReboundsVictim(t *testing.T) {
	sys, err := New(baseOpts(t, string(PolicyFlat)))
	if err != nil {
		t.Fatal(err)
	}
	sys.setHorizon(horizonBounded)
	if err := sys.prefault(context.Background()); err != nil {
		t.Fatal(err)
	}
	c := &sys.cores
	c.ev[0] = stepEvent{kind: evWalk}
	sys.rebound(0)
	l := &c.look[0]
	if l.scan != l.tail {
		t.Fatalf("scan stopped at %d of [%d, %d) over a prefaulted footprint", l.scan, l.head, l.tail)
	}
	// Unmap the latest queued reference's page that no earlier queued
	// reference touches, so the bound must fall to exactly its step.
	pageOf := func(k uint64) uint64 { return l.refs[k%lookDepth].VAddr / sys.os.Config().PageBytes }
	m := l.tail - 1
	for ; m > l.head; m-- {
		first := true
		for k := l.head; k < m; k++ {
			first = first && pageOf(k) != pageOf(m)
		}
		if first {
			break
		}
	}
	before := c.bound[0]
	va := l.refs[m%lookDepth].VAddr
	sys.os.FreeRange(c.proc[0], va, 1, 0)
	if err := sys.evicted(1, 0); err != nil {
		t.Fatal(err)
	}
	want := c.time[0] + l.cycs[m%lookDepth] - l.cycs[l.head%lookDepth]
	if c.bound[0] != want || want >= before {
		t.Errorf("bound %d after the eviction (was %d), want %d: the step of the queued reference to %#x", c.bound[0], before, want, va)
	}
}

// TestRunAheadSelection pins the fault horizon each input gets: +∞ for
// stable translations, a bounded horizon for footprints that can
// evict, and −∞ under an AutoNUMA engine or a trace sink.
func TestRunAheadSelection(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy PolicyKind
		mutate func(*Options)
		want   horizonMode
	}{
		{"stable", PolicyChameleonOpt, func(*Options) {}, horizonOpen},
		{"trace sink", PolicyChameleonOpt, func(o *Options) { o.TraceSink = &memSink{} }, horizonNone},
		{"evictable", PolicyChameleonOpt, func(o *Options) { evictVariant.mutate(t, o) }, horizonBounded},
		{"evictable with a trace sink", PolicyAlloy, func(o *Options) {
			evictVariant.mutate(t, o)
			o.TraceSink = &memSink{}
		}, horizonNone},
		{"autonuma", PolicyNUMAFlat, func(o *Options) {
			o.AutoNUMA = &osmodel.AutoNUMAConfig{EpochCycles: 1_000_000, Threshold: 0.8, ScanPages: 4096}
		}, horizonNone},
	} {
		opts := baseOpts(t, string(tc.policy))
		tc.mutate(&opts)
		sys, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		if sys.horizon != tc.want {
			t.Errorf("%s: horizon = %d, want %d", tc.name, sys.horizon, tc.want)
		}
		if bounded := sys.cores.look != nil; bounded != (tc.want == horizonBounded) {
			t.Errorf("%s: lookahead allocated = %v at horizon %d", tc.name, bounded, sys.horizon)
		}
	}
}

// TestStepLoopDoesNotAllocate pins the engine's steady-state step loop
// at zero allocations per reference at every fault horizon (+∞,
// bounded, and −∞ or serial mode): once the system is prefaulted and
// the scratch buffers have grown to their working sizes, whole execute
// passes must not allocate. This is the package-level regression gate
// behind BenchmarkStep's allocs/op column.
func TestStepLoopDoesNotAllocate(t *testing.T) {
	for _, mode := range []struct {
		name    string
		horizon horizonMode
	}{{"run-ahead", horizonOpen}, {"bounded", horizonBounded}, {"serial", horizonNone}} {
		t.Run(mode.name, func(t *testing.T) {
			opts := baseOpts(t, string(PolicyChameleonOpt))
			opts.WarmupInstructions = 0
			sys, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			if sys.horizon != horizonOpen {
				t.Fatal("options do not admit run-ahead")
			}
			sys.setHorizon(mode.horizon)
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
