package sim

import (
	"context"
	"fmt"
	"testing"

	"chameleon/internal/config"
	"chameleon/internal/workload"
)

// BenchmarkStep measures the end-to-end per-reference cost of the
// simulation loop on the default three-level hierarchy — translation,
// the cache walk, and the memory system (BENCH_hier.json records it
// against the walk the hierarchy pipeline replaced).
//
// The seq64/parN sub-benchmarks are the parallel engine's gate
// (BENCH_parallel.json): a 64-core machine stepping the measured
// execute pass on the sequential engine versus 2/4/8 worker threads.
// Construction, prefaulting and a warm pass run outside the timer, so
// allocs/op reports the steady-state loop (0 for seq64, pinned by
// TestStepLoopDoesNotAllocate) and ns/op the pure step throughput.
func BenchmarkStep(b *testing.B) {
	b.Run("pipeline", benchStep)
	b.Run("seq64", func(b *testing.B) { benchStep64(b, 1, 0) })
	b.Run("par2", func(b *testing.B) { benchStep64(b, 2, 0) })
	b.Run("par4", func(b *testing.B) { benchStep64(b, 4, 0) })
	b.Run("par8", func(b *testing.B) { benchStep64(b, 8, 0) })
	// Timeline sampling on, as chamd attaches a timeline to every sim
	// job that asks for threads.
	b.Run("par8timeline", func(b *testing.B) { benchStep64(b, 8, 10_000) })
}

// benchStep64 steps a 64-core machine through one measured execute pass
// per op. The workload is miniGhost shrunk until run-ahead translation
// is provably stable for 64 processes (the parallel engine's stable
// mode); its low LLC-MPKI keeps most steps core-local, which is the
// regime the paper's rate-mode experiments spend their time in. A
// non-zero epochCycles turns on timeline sampling (sequencer-side
// epoch sampling plus the workers' epoch-crossing parks).
func benchStep64(b *testing.B, threads int, epochCycles uint64) {
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
			Config:              cfg,
			Policy:              PolicyChameleonOpt,
			Workload:            prof,
			Seed:                7,
			Threads:             threads,
			TimelineEpochCycles: epochCycles,
		})
		if err != nil {
			b.Fatal(err)
		}
		if threads > 1 && !sys.ParallelEnabled() {
			b.Fatal("parallel engine not enabled")
		}
		sys.ran = true
		sys.runCtx = context.Background()
		if epochCycles > 0 {
			// Run seeds the first epoch boundary before the measured
			// loop; this bench drives execute directly, so seed it here.
			sys.nextEpoch.Store(epochCycles)
		}
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

// BenchmarkEngineByWorkload is the evidence behind ThreadBudget's
// sequential default: one full simulation per op (New, 250k warm-up
// and 100k measured instructions per core) of chameleon-opt on the
// default 12-core machine at scale 256, for six Table II workloads
// spanning the LLC-MPKI range, on the sequential engine (threads1)
// and the parallel engine at two threads (threads2).
// BENCH_parallel.json records the pairs with the host's NumCPU.
func BenchmarkEngineByWorkload(b *testing.B) {
	const scale = 256
	cfg := config.Default(scale)
	for _, name := range []string{"mcf", "lbm", "bwaves", "hpccg", "comd", "miniGhost"} {
		prof, err := workload.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		prof = prof.Scale(scale)
		for _, threads := range []int{1, 2} {
			engine := EngineSequential
			if threads > 1 {
				engine = EngineParallel
			}
			b.Run(fmt.Sprintf("%s/threads%d", name, threads), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sys, err := New(Options{
						Config:             cfg,
						Policy:             PolicyChameleonOpt,
						Workload:           prof,
						Seed:               7,
						Threads:            threads,
						WarmupInstructions: 250_000,
					})
					if err != nil {
						b.Fatal(err)
					}
					res, err := sys.Run(100_000)
					if err != nil {
						b.Fatal(err)
					}
					if res.Engine != engine {
						b.Fatalf("engine = %q (%s), want %s", res.Engine, res.FallbackReason, engine)
					}
				}
			})
		}
	}
}
