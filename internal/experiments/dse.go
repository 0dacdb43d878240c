package experiments

import (
	"context"
	"errors"
	"fmt"

	"chameleon/internal/config"
	"chameleon/internal/dse"
	"chameleon/internal/sim"
)

// pruneWaveSize is the fixed cell count between a pruned sweep's
// pruning decisions. Decisions happen at wave boundaries on the full
// index-ordered point set, never on completion order, and the wave
// size is a constant, not the concurrency bound, so a pruned sweep's
// outcome is identical at any Parallelism.
const pruneWaveSize = 32

// RunDSE runs a design-space sweep: Options axes seed the spec's empty
// axes (see Sweep), and Options supply each cell's instruction and
// warm-up budgets. The sweep's cells run through the pool behind Run,
// in waves: one wave, or with PruneAfter set fixed-size index-ordered
// waves between which the spec's pruning decision (dse.Condemned) may
// skip the remaining cells of a condemned axis value. Every cell error
// of a wave is joined into one. Progress counts expanded cells, and
// every point carries its cell's Cell.Hash.
func RunDSE(ctx context.Context, o Options, spec dse.Spec) (*dse.Result, error) {
	o = o.Defaults()
	spec, err := o.Sweep(spec)
	if err != nil {
		return nil, err
	}
	cells, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	waveSize := len(cells)
	if spec.PruneAfter > 0 {
		waveSize = pruneWaveSize
	}
	res := &dse.Result{Objectives: spec.Objectives, TotalCells: len(cells)}
	condemned := dse.Condemned{}
	for next := 0; next < len(cells); {
		// The next wave in cell-index order, without the cells an
		// earlier wave condemned.
		var wave []dse.Cell
		var runs []Cell
		var errs []error
		for ; next < len(cells) && len(wave) < waveSize; next++ {
			c := cells[next]
			if condemned.Prunes(c) {
				res.Pruned++
				o.progress(res.Evaluated, res.Cached, res.Pruned, res.TotalCells)
				continue
			}
			run, err := SweepCell(spec, c, o.Instructions, o.Warmup)
			if err != nil {
				errs = append(errs, fmt.Errorf("%s/%s (cell %d): %w", c.Policy, c.Workload, c.Index, err))
			}
			wave, runs = append(wave, c), append(runs, run)
		}
		if len(errs) > 0 {
			return nil, errors.Join(errs...)
		}
		points := make([]dse.Point, len(wave))
		err := o.pool(ctx, runs, func(i int, r *sim.Result, cached bool) error {
			vals, err := dse.Values(r.Snapshot(), spec.Objectives)
			if err != nil {
				return err
			}
			points[i] = dse.Point{Cell: wave[i], Values: vals, Hash: runs[i].Hash(), Cached: cached}
			res.Evaluated++
			if cached {
				res.Cached++
			}
			o.progress(res.Evaluated, res.Cached, res.Pruned, res.TotalCells)
			return nil
		})
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, points...)
		condemned.Update(spec, res.Points)
	}
	res.Front, res.Dominated = dse.Front(res.Points, spec.Objectives)
	return res, nil
}

// Sweep normalizes spec after seeding each of its empty axes from the
// matching Options field, when that is set: Scale, Seed, Workloads,
// Policies, CacheLevels and MemoryTiers (the last two as one-variant
// axes).
func (o Options) Sweep(spec dse.Spec) (dse.Spec, error) {
	if len(spec.Scales) == 0 && o.Scale > 0 {
		spec.Scales = []uint64{o.Scale}
	}
	if len(spec.Seeds) == 0 && o.Seed > 0 {
		spec.Seeds = []uint64{o.Seed}
	}
	if len(spec.Workloads) == 0 {
		spec.Workloads = o.Workloads
	}
	if len(spec.Policies) == 0 {
		for _, p := range o.Policies {
			spec.Policies = append(spec.Policies, string(p))
		}
	}
	if len(spec.CacheLevelVariants) == 0 && len(o.CacheLevels) > 0 {
		spec.CacheLevelVariants = [][]config.CacheLevelConfig{o.CacheLevels}
	}
	if len(spec.MemoryTierVariants) == 0 && len(o.MemoryTiers) > 0 {
		spec.MemoryTierVariants = [][]config.MemTierConfig{config.CloneTiers(o.MemoryTiers)}
	}
	return spec.Normalize()
}
