package experiments

import (
	"context"
	"testing"

	"chameleon/internal/dse"
)

// BenchmarkSweepBookkeeping times a sweep's bookkeeping alone: the
// default axes over 167 seeds (16,366 cells) with a fake Simulate, so
// expansion, cell normalization, hashing, the pool and the running
// front are all that run. "pruned" sets PruneAfter high enough to
// condemn nothing, so it runs the same cells as "unpruned" in 32-cell
// waves with the pruning tallies kept.
func BenchmarkSweepBookkeeping(b *testing.B) {
	seeds := make([]uint64, 167)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	for _, bc := range []struct {
		name       string
		pruneAfter int
	}{{"unpruned", 0}, {"pruned", 1 << 20}} {
		b.Run(bc.name, func(b *testing.B) {
			spec := dse.Spec{Seeds: seeds, PruneAfter: bc.pruneAfter}
			for i := 0; i < b.N; i++ {
				res, err := RunDSE(context.Background(), Options{Simulate: fakeSimulate(hashVals)}, spec)
				if err != nil {
					b.Fatal(err)
				}
				if res.TotalCells != 16366 || res.Pruned != 0 {
					b.Fatalf("%d cells, %d pruned; want 16366 and none pruned", res.TotalCells, res.Pruned)
				}
			}
		})
	}
}
