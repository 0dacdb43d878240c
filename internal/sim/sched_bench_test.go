package sim

import (
	"fmt"
	"testing"

	"chameleon/internal/config"
	"chameleon/internal/workload"
)

// BenchmarkScheduler measures the simulation loop under the heap
// scheduler at increasing core counts.
func BenchmarkScheduler(b *testing.B) {
	for _, n := range []int{12, 32, 64} {
		b.Run(fmt.Sprintf("cores=%d/heap", n), func(b *testing.B) {
			benchScheduler(b, n)
		})
	}
}

func benchScheduler(b *testing.B, cores int) {
	const scale = 512
	cfg := config.Default(scale)
	cfg.CPU.Cores = cores
	prof, err := workload.ByName("bwaves")
	if err != nil {
		b.Fatal(err)
	}
	prof = prof.Scale(scale)
	// Keep the aggregate footprint inside the scaled machine at every
	// core count, so the capacity check admits the 64-core run.
	if cap := cfg.TotalCapacity() / uint64(2*cores); prof.FootprintBytes > cap {
		prof.FootprintBytes = cap
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys, err := New(Options{
			Config:   cfg,
			Policy:   PolicyNUMAFlat,
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
