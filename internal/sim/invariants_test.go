package sim

import (
	"math"
	"testing"

	"chameleon/internal/config"
	"chameleon/internal/policy"
	"chameleon/internal/srrt"
	"chameleon/internal/workload"
)

// tabled is implemented by controllers exposing their remapping table.
type tabled interface{ Table() *srrt.Table }

// TestRemapInvariantsAfterFullRuns drives every SRRT-based design
// through a complete simulation (prefault, warm-up, measurement) and
// validates the remapping table's structural invariants at the end.
func TestRemapInvariantsAfterFullRuns(t *testing.T) {
	const scale = 512
	cfg := config.Default(scale)
	for _, k := range []PolicyKind{PolicyPoM, PolicyPolymorphic, PolicyChameleon, PolicyChameleonOpt} {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			prof, err := workload.ByName("cloverleaf")
			if err != nil {
				t.Fatal(err)
			}
			sys, err := New(Options{
				Config:             cfg,
				Policy:             k,
				Workload:           prof.Scale(scale),
				Seed:               31,
				WarmupInstructions: 500_000,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Run(100_000); err != nil {
				t.Fatal(err)
			}
			tb, ok := sys.Controller().(tabled)
			if !ok {
				t.Fatalf("%v does not expose its table", k)
			}
			if err := tb.Table().CheckInvariants(); err != nil {
				t.Errorf("invariants violated after run: %v", err)
			}
		})
	}
}

// TestTrafficConservation checks cross-module accounting: the bytes
// the DRAM devices report moving must equal demand traffic plus the
// controller's segment transfers, clears, probes and SRT fills.
func TestTrafficConservation(t *testing.T) {
	const scale = 512
	cfg := config.Default(scale)
	cfg.MemSys.ClearOnModeSwitch = false // clears are not in Ctrl.SwapBytes
	prof, err := workload.ByName("hpccg")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(Options{
		Config:             cfg,
		Policy:             PolicyPoM,
		Workload:           prof.Scale(scale),
		Seed:               13,
		WarmupInstructions: 300_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(100_000)
	if err != nil {
		t.Fatal(err)
	}
	demand := res.Ctrl.Accesses * 64
	srt := res.Ctrl.SRTMisses * 64
	segment := res.Ctrl.SwapBytes * 2 // each byte read once and written once
	want := demand + srt + segment
	var got uint64
	for _, tr := range res.Tiers {
		got += uint64(tr.Device["bytes_moved"])
	}
	if got != want {
		t.Errorf("device bytes %d != accounted bytes %d (demand %d, srt %d, segments %d)",
			got, want, demand, srt, segment)
	}
}

// TestCoreFairness: in rate mode every core runs the same program, so
// per-core IPCs should cluster (no core starves under the min-time
// scheduler).
func TestCoreFairness(t *testing.T) {
	const scale = 512
	cfg := config.Default(scale)
	prof, err := workload.ByName("lbm")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(Options{
		Config:             cfg,
		Policy:             PolicyChameleonOpt,
		Workload:           prof.Scale(scale),
		Seed:               17,
		WarmupInstructions: 500_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(200_000)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := res.Cores[0].IPC, res.Cores[0].IPC
	for _, c := range res.Cores {
		if c.IPC < lo {
			lo = c.IPC
		}
		if c.IPC > hi {
			hi = c.IPC
		}
	}
	if hi > lo*1.5 {
		t.Errorf("core IPC spread too wide: [%.3f, %.3f]", lo, hi)
	}
}

// TestWarmupImprovesHitRate: the fast-forward warm-up must leave the
// remapping state converged — a warmed run's measured hit rate should
// exceed a cold run's.
func TestWarmupImprovesHitRate(t *testing.T) {
	const scale = 512
	run := func(warmup uint64) float64 {
		cfg := config.Default(scale)
		prof, err := workload.ByName("bwaves")
		if err != nil {
			t.Fatal(err)
		}
		sys, err := New(Options{
			Config:             cfg,
			Policy:             PolicyPoM,
			Workload:           prof.Scale(scale),
			Seed:               23,
			WarmupInstructions: warmup,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(50_000)
		if err != nil {
			t.Fatal(err)
		}
		return res.StackedHitRate
	}
	cold := run(0)
	warm := run(2_000_000)
	t.Logf("cold hit %.3f, warm hit %.3f", cold, warm)
	if warm <= cold {
		t.Errorf("warm-up should converge the hot set: %.3f <= %.3f", warm, cold)
	}
}

// TestModeDistributionInterface: only the Chameleon designs advertise a
// mode distribution.
func TestModeDistributionInterface(t *testing.T) {
	const scale = 512
	cfg := config.Default(scale)
	prof, _ := workload.ByName("miniFE")
	for _, k := range []PolicyKind{PolicyPoM, PolicyChameleon} {
		opts := Options{Config: cfg, Policy: k, Workload: prof.Scale(scale), Seed: 1}
		sys, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		_, isMD := sys.Controller().(policy.ModeDistribution)
		if k == PolicyChameleon && !isMD {
			t.Error("chameleon must expose its mode distribution")
		}
		if k == PolicyPoM && isMD {
			t.Error("pom has no modes to expose")
		}
	}
}

// TestUtilizationCoversMeasuredWindow: device counters are reset at the
// phase barrier after warm-up, so a tier's utilisation must be its
// measured-window bytes over peak bandwidth times the measured window,
// not times a span that includes warm-up. Flat pays full DRAM timing
// while warming, so its warm-up is long and a wrong window shows.
func TestUtilizationCoversMeasuredWindow(t *testing.T) {
	const scale = 512
	cfg := config.Default(scale)
	prof, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(Options{
		Config:             cfg,
		Policy:             PolicyFlat,
		Workload:           prof.Scale(scale),
		Seed:               11,
		WarmupInstructions: 200_000,
		BaselineBytes:      24 * config.GB / scale,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(50_000)
	if err != nil {
		t.Fatal(err)
	}
	window := res.MeasuredCycles()
	if 2*window > res.MaxCycles {
		t.Fatalf("measured window %d of %d cycles: warm-up is too short to tell the windows apart", window, res.MaxCycles)
	}
	var moved bool
	for i, tr := range res.Tiers {
		bytes := tr.Device["bytes_moved"]
		if bytes == 0 {
			continue
		}
		moved = true
		got := tr.Utilization * sys.Tiers()[i].Dev.PeakBandwidth() * float64(window) / cfg.CPU.FreqHz
		if math.Abs(got-bytes) > 1e-9*bytes {
			t.Errorf("%s: utilisation %.4f x peak x window is %.0f bytes, device moved %.0f", tr.Tier, tr.Utilization, got, bytes)
		}
	}
	if !moved {
		t.Fatal("no tier moved bytes in the measured run")
	}
}
