package sim

import (
	"context"
	"testing"

	"chameleon/internal/config"
	"chameleon/internal/osmodel"
	"chameleon/internal/workload"
)

// BenchmarkStep measures the end-to-end per-reference cost of the
// simulation loop on the default three-level hierarchy — translation,
// the cache walk, and the memory system (BENCH_hier.json records it
// against the walk the hierarchy pipeline replaced).
//
// The seq64 sub-benchmark (BENCH_parallel.json) is a 64-core machine
// stepping the measured execute pass. Construction, prefaulting and a
// warm pass run outside the timer, so allocs/op reports the
// steady-state loop (0, pinned by TestStepLoopDoesNotAllocate) and
// ns/op the pure step throughput.
func BenchmarkStep(b *testing.B) {
	b.Run("pipeline", benchStep)
	b.Run("seq64", benchStep64)
}

// benchStep64 steps a 64-core machine through one measured execute pass
// per op. The workload is miniGhost shrunk until run-ahead translation
// is provably stable for 64 processes; its low LLC-MPKI keeps most
// steps core-local, which is the regime the paper's rate-mode
// experiments spend their time in.
func benchStep64(b *testing.B) {
	const scale = 512
	cfg := config.Default(scale)
	cfg.CPU.Cores = 64
	prof, err := workload.ByName("miniGhost")
	if err != nil {
		b.Fatal(err)
	}
	prof = prof.Scale(8 * scale)
	b.ReportAllocs()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		sys, err := New(Options{
			Config:   cfg,
			Policy:   PolicyChameleonOpt,
			Workload: prof,
			Seed:     7,
		})
		if err != nil {
			b.Fatal(err)
		}
		sys.ran = true
		sys.runCtx = context.Background()
		if err := sys.prefault(context.Background()); err != nil {
			b.Fatal(err)
		}
		if err := sys.execute(20_000); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := sys.execute(100_000); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
	}
}

func benchStep(b *testing.B) {
	const scale = 512
	cfg := config.Default(scale)
	prof, err := workload.ByName("bwaves")
	if err != nil {
		b.Fatal(err)
	}
	prof = prof.Scale(scale)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys, err := New(Options{
			Config:   cfg,
			Policy:   PolicyChameleonOpt,
			Workload: prof,
			Seed:     7,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Run(20_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineByWorkload times one full simulation per op (New,
// 250k warm-up and 100k measured instructions per core) on the default
// 12-core machine at scale 256: chameleon-opt on six Table II workloads
// spanning the LLC-MPKI range, which run ahead at horizon +∞, alloy on
// two footprints that can evict, which run to a bounded fault horizon,
// and numa-flat with AutoNUMA at Fig. 2b's setting, which runs serially
// (horizon −∞). Each row asserts its horizon. The threads1 suffix keeps the names of
// BENCH_parallel.json's records, which compare the run-ahead rows with
// the removed parallel engine (threads2).
func BenchmarkEngineByWorkload(b *testing.B) {
	const scale = 256
	cfg := config.Default(scale)
	autoNUMA := &osmodel.AutoNUMAConfig{EpochCycles: 100_000, Threshold: 0.9, ScanPages: 4096}
	type run struct {
		name, workload string
		policy         PolicyKind
		autoNUMA       *osmodel.AutoNUMAConfig
		horizon        horizonMode
	}
	var runs []run
	for _, name := range []string{"mcf", "lbm", "bwaves", "hpccg", "comd", "miniGhost"} {
		runs = append(runs, run{name: name + "/threads1", workload: name, policy: PolicyChameleonOpt, horizon: horizonOpen})
	}
	runs = append(runs,
		run{name: "alloy/bwaves", workload: "bwaves", policy: PolicyAlloy, horizon: horizonBounded},
		run{name: "alloy/miniGhost", workload: "miniGhost", policy: PolicyAlloy, horizon: horizonBounded},
		run{name: "numa-flat+autonuma/lbm", workload: "lbm", policy: PolicyNUMAFlat, autoNUMA: autoNUMA, horizon: horizonNone},
	)
	for _, r := range runs {
		prof, err := workload.ByName(r.workload)
		if err != nil {
			b.Fatal(err)
		}
		prof = prof.Scale(scale)
		b.Run(r.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys, err := New(Options{
					Config:             cfg,
					Policy:             r.policy,
					Workload:           prof,
					Seed:               7,
					WarmupInstructions: 250_000,
					AutoNUMA:           r.autoNUMA,
				})
				if err != nil {
					b.Fatal(err)
				}
				if sys.horizon != r.horizon {
					b.Fatalf("horizon = %d, want %d", sys.horizon, r.horizon)
				}
				if _, err := sys.Run(100_000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
