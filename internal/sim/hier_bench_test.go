package sim

import (
	"context"
	"testing"

	"chameleon/internal/config"
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
// 250k warm-up and 100k measured instructions per core) of
// chameleon-opt on the default 12-core machine at scale 256, for six
// Table II workloads spanning the LLC-MPKI range. The threads1 suffix
// keeps the names of BENCH_parallel.json's records, which compare it
// with the removed parallel engine (threads2).
func BenchmarkEngineByWorkload(b *testing.B) {
	const scale = 256
	cfg := config.Default(scale)
	for _, name := range []string{"mcf", "lbm", "bwaves", "hpccg", "comd", "miniGhost"} {
		prof, err := workload.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		prof = prof.Scale(scale)
		b.Run(name+"/threads1", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys, err := New(Options{
					Config:             cfg,
					Policy:             PolicyChameleonOpt,
					Workload:           prof,
					Seed:               7,
					WarmupInstructions: 250_000,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sys.Run(100_000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
