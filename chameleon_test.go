package chameleon_test

import (
	"math"
	"reflect"
	"testing"

	"chameleon"
	"chameleon/internal/osmodel"
)

const testScale = 512

func testRun(t *testing.T, opts chameleon.Options, instr uint64) *chameleon.Result {
	t.Helper()
	sys, err := chameleon.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(instr)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func baseOptions(t *testing.T, policy chameleon.Policy, wl string) chameleon.Options {
	t.Helper()
	prof, err := chameleon.Workload(wl)
	if err != nil {
		t.Fatal(err)
	}
	return chameleon.Options{
		Config:             chameleon.DefaultConfig(testScale),
		Policy:             policy,
		Workload:           prof.Scale(testScale),
		Seed:               9,
		WarmupInstructions: 1_000_000,
	}
}

func TestFacadeQuickstart(t *testing.T) {
	res := testRun(t, baseOptions(t, chameleon.PolicyChameleonOpt, "bwaves"), 200_000)
	if res.GeoMeanIPC <= 0 {
		t.Error("no progress")
	}
	if res.StackedHitRate <= 0 || res.StackedHitRate > 1 {
		t.Errorf("hit rate = %v", res.StackedHitRate)
	}
	if res.CacheModeFraction <= 0 {
		t.Error("Chameleon-Opt should have cache-mode groups with free memory present")
	}
}

// TestDeterminism: identical options produce bit-identical results.
func TestDeterminism(t *testing.T) {
	a := testRun(t, baseOptions(t, chameleon.PolicyChameleon, "mcf"), 100_000)
	b := testRun(t, baseOptions(t, chameleon.PolicyChameleon, "mcf"), 100_000)
	if a.GeoMeanIPC != b.GeoMeanIPC || a.Ctrl != b.Ctrl || !reflect.DeepEqual(a.Tiers, b.Tiers) {
		t.Errorf("runs with identical seeds diverged: %v vs %v", a.GeoMeanIPC, b.GeoMeanIPC)
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	a := testRun(t, baseOptions(t, chameleon.PolicyChameleon, "mcf"), 100_000)
	o := baseOptions(t, chameleon.PolicyChameleon, "mcf")
	o.Seed = 10
	b := testRun(t, o, 100_000)
	if a.Ctrl.LatencySum == b.Ctrl.LatencySum {
		t.Error("different seeds should perturb the run")
	}
}

// TestPaperOrdering is the headline shape check (Figure 18): on a
// memory-intensive workload, Chameleon-Opt >= Chameleon ~ PoM > the
// 24 GB flat baseline > the faulting 20 GB baseline.
func TestPaperOrdering(t *testing.T) {
	const wl = "bwaves"
	ipc := func(p chameleon.Policy, baselineGB uint64) float64 {
		o := baseOptions(t, p, wl)
		if baselineGB != 0 {
			o.BaselineBytes = baselineGB * chameleon.GB / testScale
		}
		return testRun(t, o, 200_000).GeoMeanIPC
	}
	flat20 := ipc(chameleon.PolicyFlat, 20)
	flat24 := ipc(chameleon.PolicyFlat, 24)
	pom := ipc(chameleon.PolicyPoM, 0)
	cham := ipc(chameleon.PolicyChameleon, 0)
	opt := ipc(chameleon.PolicyChameleonOpt, 0)
	t.Logf("flat20=%.3f flat24=%.3f pom=%.3f cham=%.3f opt=%.3f", flat20, flat24, pom, cham, opt)
	if flat20 >= flat24 {
		t.Errorf("capacity loss should hurt: flat20 %.3f >= flat24 %.3f", flat20, flat24)
	}
	if flat24 >= pom {
		t.Errorf("PoM should beat the flat baseline: %.3f >= %.3f", flat24, pom)
	}
	if pom > cham*1.03 {
		t.Errorf("Chameleon should be at least competitive with PoM: %.3f vs %.3f", pom, cham)
	}
	if cham > opt*1.05 {
		t.Errorf("Chameleon-Opt should not trail Chameleon: %.3f vs %.3f", cham, opt)
	}
}

// TestHitRateOrdering mirrors Figure 15's shape.
func TestHitRateOrdering(t *testing.T) {
	const wl = "leslie3d"
	hit := func(p chameleon.Policy) float64 {
		return testRun(t, baseOptions(t, p, wl), 200_000).StackedHitRate
	}
	alloy := hit(chameleon.PolicyAlloy)
	pom := hit(chameleon.PolicyPoM)
	opt := hit(chameleon.PolicyChameleonOpt)
	t.Logf("alloy=%.3f pom=%.3f opt=%.3f", alloy, pom, opt)
	if alloy >= pom {
		t.Errorf("2KB-segment PoM should out-hit the 64B Alloy cache: %.3f >= %.3f", alloy, pom)
	}
	if pom > opt*1.05 {
		t.Errorf("Chameleon-Opt hit rate should be at least PoM-like: %.3f vs %.3f", pom, opt)
	}
}

// TestCacheModeTracksFreeSpace mirrors Figure 16: with a footprint well
// under capacity most Chameleon-Opt groups serve as cache; near-full
// footprints leave few.
func TestCacheModeTracksFreeSpace(t *testing.T) {
	frac := func(footprintShare float64) float64 {
		o := baseOptions(t, chameleon.PolicyChameleonOpt, "bwaves")
		o.Workload.FootprintBytes = uint64(float64(o.Config.TotalCapacity()) * footprintShare / 12)
		return testRun(t, o, 50_000).CacheModeFraction
	}
	low, high := frac(0.5), frac(0.98)
	t.Logf("cache-mode at 50%% footprint: %.2f, at 98%%: %.2f", low, high)
	if low < 0.8 {
		t.Errorf("half-empty machine should cache almost everywhere, got %.2f", low)
	}
	if high > 0.2 {
		t.Errorf("nearly-full machine should run mostly in PoM mode, got %.2f", high)
	}
	if low <= high {
		t.Error("cache-mode share must shrink as memory fills")
	}
}

func TestAlloyPageFaultsOnHighFootprint(t *testing.T) {
	res := testRun(t, baseOptions(t, chameleon.PolicyAlloy, "cloverleaf"), 100_000)
	if res.OS.MajorFaults == 0 {
		t.Error("Alloy sacrifices capacity: a 23 GB footprint must page-fault")
	}
	opt := testRun(t, baseOptions(t, chameleon.PolicyChameleonOpt, "cloverleaf"), 100_000)
	if opt.OS.MajorFaults != 0 {
		t.Error("PoM capacity should avert page faults for a 23 GB footprint")
	}
}

func TestCAMEORuns(t *testing.T) {
	res := testRun(t, baseOptions(t, chameleon.PolicyCAMEO, "mcf"), 100_000)
	if res.Ctrl.Accesses == 0 {
		t.Fatal("no memory traffic")
	}
	if res.Ctrl.SwapBytes == 0 {
		t.Error("CAMEO should migrate lines on first touch")
	}
}

func TestAutoNUMAImprovesOnFirstTouch(t *testing.T) {
	ft := testRun(t, baseOptions(t, chameleon.PolicyNUMAFlat, "bwaves"), 200_000)
	o := baseOptions(t, chameleon.PolicyNUMAFlat, "bwaves")
	o.AutoNUMA = &chameleon.AutoNUMAConfig{EpochCycles: 1_000_000, Threshold: 0.9, ScanPages: 4096}
	an := testRun(t, o, 200_000)
	// Migrations race the allocation ramp and mostly land during the
	// warm-up epochs; the timeline records them (run-phase OS stats are
	// reset at the measurement boundary).
	migrations := 0
	for _, rec := range an.NUMATimeline {
		migrations += rec.Migrations
	}
	t.Logf("first-touch hit %.3f, autonuma hit %.3f (migrations %d)", ft.StackedHitRate, an.StackedHitRate, migrations)
	if migrations == 0 {
		t.Error("AutoNUMA migrated nothing")
	}
	if an.StackedHitRate <= ft.StackedHitRate {
		t.Error("AutoNUMA should raise the stacked hit rate over first-touch")
	}
	if len(an.NUMATimeline) == 0 {
		t.Error("timeline missing")
	}
}

func TestOptionValidation(t *testing.T) {
	// Flat policy without a capacity.
	o := baseOptions(t, chameleon.PolicyFlat, "bwaves")
	if _, err := chameleon.New(o); err == nil {
		t.Error("PolicyFlat without BaselineBytes should fail")
	}
	// AutoNUMA on a hardware-managed design.
	o = baseOptions(t, chameleon.PolicyPoM, "bwaves")
	o.AutoNUMA = &chameleon.AutoNUMAConfig{Threshold: 0.9}
	if _, err := chameleon.New(o); err == nil {
		t.Error("AutoNUMA outside NUMA-flat should fail")
	}
	// Too many copies.
	o = baseOptions(t, chameleon.PolicyPoM, "bwaves")
	o.Copies = 99
	if _, err := chameleon.New(o); err == nil {
		t.Error("more copies than cores should fail")
	}
	// Invalid config.
	o = baseOptions(t, chameleon.PolicyPoM, "bwaves")
	o.Config.CPU.Cores = 0
	if _, err := chameleon.New(o); err == nil {
		t.Error("invalid config should fail")
	}
	// Zero instruction budget.
	sys, err := chameleon.New(baseOptions(t, chameleon.PolicyPoM, "bwaves"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(0); err == nil {
		t.Error("zero budget should fail")
	}
}

func TestWorkloadsListing(t *testing.T) {
	names := chameleon.Workloads()
	if len(names) != 14 {
		t.Fatalf("workloads = %d, want 14", len(names))
	}
	for _, n := range names {
		if _, err := chameleon.Workload(n); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
	if _, err := chameleon.Workload("unknown"); err == nil {
		t.Error("unknown workload should fail")
	}
}

func TestTraceStreamFacade(t *testing.T) {
	prof, err := chameleon.Workload("stream")
	if err != nil {
		t.Fatal(err)
	}
	st, err := chameleon.NewTraceStream(prof.Scale(testScale), 5)
	if err != nil {
		t.Fatal(err)
	}
	r := st.Next()
	if r.Gap == 0 {
		t.Error("gap must be positive")
	}
}

func TestRatioConfigs(t *testing.T) {
	for _, ratio := range []int{3, 7} {
		cfg, err := chameleon.DefaultConfig(testScale).WithRatio(ratio)
		if err != nil {
			t.Fatal(err)
		}
		o := baseOptions(t, chameleon.PolicyChameleonOpt, "bwaves")
		o.Config = cfg
		res := testRun(t, o, 50_000)
		if res.Ctrl.Accesses == 0 {
			t.Errorf("ratio 1:%d produced no traffic", ratio)
		}
	}
}

// TestRatioCacheModeShape mirrors Figure 21: more ways per group means
// a higher chance of a free segment, so more cache-mode groups.
func TestRatioCacheModeShape(t *testing.T) {
	frac := func(ratio int) float64 {
		cfg, err := chameleon.DefaultConfig(testScale).WithRatio(ratio)
		if err != nil {
			t.Fatal(err)
		}
		o := baseOptions(t, chameleon.PolicyChameleonOpt, "bwaves")
		o.Config = cfg
		return testRun(t, o, 50_000).CacheModeFraction
	}
	r3, r7 := frac(3), frac(7)
	t.Logf("cache-mode share: 1:3 %.3f, 1:7 %.3f", r3, r7)
	if r3 >= r7 {
		t.Errorf("1:7 should have more cache-mode groups than 1:3 (%.3f vs %.3f)", r7, r3)
	}
}

func TestFlatAllocPolicyOverride(t *testing.T) {
	o := baseOptions(t, chameleon.PolicyNUMAFlat, "bwaves")
	seq := chameleon.AllocSequential
	o.Alloc = &seq
	res := testRun(t, o, 50_000)
	if res.Ctrl.Accesses == 0 {
		t.Fatal("no traffic")
	}
}

func TestResultConsistency(t *testing.T) {
	res := testRun(t, baseOptions(t, chameleon.PolicyPoM, "hpccg"), 100_000)
	if res.Ctrl.FastHits > res.Ctrl.Accesses {
		t.Error("more hits than accesses")
	}
	if math.IsNaN(res.AMAT) || res.AMAT < 0 {
		t.Errorf("AMAT = %v", res.AMAT)
	}
	for _, c := range res.Cores {
		if c.Instructions < 100_000 {
			t.Errorf("core ran %d instructions, want >= budget", c.Instructions)
		}
	}
	if res.CPUUtilization < 0 || res.CPUUtilization > 1 {
		t.Errorf("utilisation = %v", res.CPUUtilization)
	}
}

// Compile-time checks that facade aliases expose the intended types.
var (
	_ chameleon.AllocPolicy     = osmodel.AllocShuffled
	_ *chameleon.AutoNUMAConfig = &osmodel.AutoNUMAConfig{}
)
