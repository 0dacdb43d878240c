package sim

import (
	"testing"

	"chameleon/internal/config"
	"chameleon/internal/osmodel"
	"chameleon/internal/trace"
	"chameleon/internal/workload"
)

func featureOpts(t *testing.T, k PolicyKind) Options {
	t.Helper()
	const scale = 512
	prof, err := workload.ByName("bwaves")
	if err != nil {
		t.Fatal(err)
	}
	return Options{
		Config:             config.Default(scale),
		Policy:             k,
		Workload:           prof.Scale(scale),
		Seed:               21,
		WarmupInstructions: 500_000,
	}
}

func TestTHPIssuesBatchedISA(t *testing.T) {
	opts := featureOpts(t, PolicyChameleonOpt)
	opts.UseTHP = true
	sys, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(50_000)
	if err != nil {
		t.Fatal(err)
	}
	// Prefault allocated the footprint with 2 MB pages: each page
	// triggers HugePageBytes/SegmentBytes = 1024 ISA-Alloc calls
	// (Algorithm 1's GFP_TRANSHUGE path). Warm-up stats are reset, so
	// count via the OS minor faults instead: every mapped huge page
	// must correspond to exactly 1024 allocations at the controller.
	pages := res.OS.MinorFaults
	_ = pages
	if res.GeoMeanIPC <= 0 {
		t.Fatal("THP run made no progress")
	}
	if sys.OS().Config().PageBytes != uint64(opts.Config.OS.HugePageBytes) {
		t.Errorf("OS page size = %d, want THP", sys.OS().Config().PageBytes)
	}
}

func TestTHPISABatchRatio(t *testing.T) {
	opts := featureOpts(t, PolicyChameleonOpt)
	opts.UseTHP = true
	opts.WarmupInstructions = 0 // keep warm-up stats visible
	sys, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(10_000); err != nil {
		t.Fatal(err)
	}
	st := sys.Controller().Stats()
	os := sys.OS().Stats()
	mapped := os.MinorFaults
	perPage := uint64(opts.Config.OS.HugePageBytes / opts.Config.MemSys.SegmentBytes)
	if st.ISAAllocs != mapped*perPage {
		t.Errorf("ISA-Allocs = %d, want %d pages x %d segments", st.ISAAllocs, mapped, perPage)
	}
}

func TestMixedWorkloads(t *testing.T) {
	opts := featureOpts(t, PolicyChameleonOpt)
	const scale = 512
	mix := make([]trace.Profile, 0, 3)
	for _, name := range []string{"mcf", "stream", "miniFE"} {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		mix = append(mix, p.Scale(scale))
	}
	opts.Mix = mix
	sys, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(100_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cores) != opts.Config.CPU.Cores {
		t.Fatalf("cores = %d", len(res.Cores))
	}
	// Cores running mcf (high MPKI) must miss far more than cores
	// running miniFE (0.48 MPKI).
	mcfMPKI := res.Cores[0].MPKI  // core 0 -> mix[0] = mcf
	miniMPKI := res.Cores[2].MPKI // core 2 -> mix[2] = miniFE
	if mcfMPKI < miniMPKI*5 {
		t.Errorf("mix not heterogeneous: mcf MPKI %.2f vs miniFE %.2f", mcfMPKI, miniMPKI)
	}
}

func TestMixValidation(t *testing.T) {
	opts := featureOpts(t, PolicyPoM)
	opts.Mix = []trace.Profile{{Name: "bad"}} // invalid profile
	if _, err := New(opts); err == nil {
		t.Error("invalid mix profile should fail")
	}
}

func TestTimelineSampling(t *testing.T) {
	opts := featureOpts(t, PolicyChameleonOpt)
	opts.TimelineEpochCycles = 50_000
	sys, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(100_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline) < 2 {
		t.Fatalf("timeline has %d points", len(res.Timeline))
	}
	for i := 1; i < len(res.Timeline); i++ {
		if res.Timeline[i].Cycle <= res.Timeline[i-1].Cycle {
			t.Fatal("timeline not monotone")
		}
	}
	for _, p := range res.Timeline {
		if p.CacheModeFraction < 0 || p.CacheModeFraction > 1 {
			t.Errorf("bad mode fraction %v", p.CacheModeFraction)
		}
	}
}

func TestGroupAwareAllocationIntegration(t *testing.T) {
	frac := func(alloc osmodel.AllocPolicy) float64 {
		opts := featureOpts(t, PolicyChameleonOpt)
		// 85% footprint leaves meaningful placement freedom.
		opts.Workload.FootprintBytes = opts.Config.TotalCapacity() * 85 / 100 / 12
		opts.Alloc = &alloc
		sys, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(30_000)
		if err != nil {
			t.Fatal(err)
		}
		return res.CacheModeFraction
	}
	uniform := frac(osmodel.AllocShuffled)
	aware := frac(osmodel.AllocGroupAware)
	t.Logf("cache-mode fraction: shuffled %.3f, group-aware %.3f", uniform, aware)
	if aware <= uniform {
		t.Errorf("group-aware OS placement should raise Chameleon-Opt's cache-mode share (%.3f vs %.3f)", aware, uniform)
	}
}

func TestEnergyAndUtilisationReporting(t *testing.T) {
	opts := featureOpts(t, PolicyPoM)
	sys, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(50_000)
	if err != nil {
		t.Fatal(err)
	}
	fast, slow := res.Tiers[0], res.Tiers[1]
	if fast.EnergyNJ <= 0 || slow.EnergyNJ <= 0 {
		t.Error("energy reports empty")
	}
	fu, su := fast.Utilization, slow.Utilization
	if fu < 0 || fu > 1.05 || su < 0 || su > 1.05 {
		t.Errorf("utilisation out of range: %v, %v", fu, su)
	}
	if su <= 0 {
		t.Error("off-chip device did no work?")
	}
}

// TestPhaseChurnDrivesModeTransitions: with mid-run allocation churn,
// ISA events arrive during measurement and the cache-mode share
// fluctuates (the dynamic reconfiguration the paper is named for).
func TestPhaseChurnDrivesModeTransitions(t *testing.T) {
	opts := featureOpts(t, PolicyChameleonOpt)
	opts.Workload.FootprintBytes = opts.Config.TotalCapacity() * 70 / 100 / 12
	opts.PhaseAllocBytes = opts.Config.TotalCapacity() / 48
	opts.PhaseEveryInstructions = 50_000
	opts.TimelineEpochCycles = 100_000
	sys, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(400_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ctrl.ISAAllocs == 0 || res.Ctrl.ISAFrees == 0 {
		t.Fatalf("no ISA events during the measured run: %+v", res.Ctrl)
	}
	if len(res.Timeline) < 3 {
		t.Fatalf("timeline too short: %d", len(res.Timeline))
	}
	lo, hi := 1.0, 0.0
	for _, p := range res.Timeline {
		if p.CacheModeFraction < lo {
			lo = p.CacheModeFraction
		}
		if p.CacheModeFraction > hi {
			hi = p.CacheModeFraction
		}
	}
	if hi-lo < 0.05 {
		t.Errorf("cache-mode share did not respond to churn: [%.3f, %.3f]", lo, hi)
	}
}

// TestPhaseChurnMemoryNeutral: after an even number of phases the
// transient buffers are freed, so the OS ends with the same free
// memory as a churn-free run.
func TestPhaseChurnMemoryNeutral(t *testing.T) {
	opts := featureOpts(t, PolicyChameleonOpt)
	opts.Workload.FootprintBytes = opts.Config.TotalCapacity() * 60 / 100 / 12
	opts.PhaseAllocBytes = 1 << 20
	opts.PhaseEveryInstructions = 40_000
	sys, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(200_000); err != nil {
		t.Fatal(err)
	}
	free := sys.OS().FreeBytes()
	footprint := opts.Workload.FootprintBytes / uint64(opts.Config.OS.PageBytes) * uint64(opts.Config.OS.PageBytes)
	_ = footprint
	// All cores hold either 0 or PhaseAllocBytes transient memory;
	// free bytes must be within cores*PhaseAllocBytes of the baseline.
	baseline := opts.Config.TotalCapacity() - 12*pageRound(opts.Workload.FootprintBytes, uint64(opts.Config.OS.PageBytes))
	slack := 12 * pageRound(opts.PhaseAllocBytes, uint64(opts.Config.OS.PageBytes))
	if free > baseline || free+slack < baseline {
		t.Errorf("free %d outside [%d-%d, %d]", free, baseline, slack, baseline)
	}
}

func pageRound(b, page uint64) uint64 {
	return (b + page - 1) / page * page
}
