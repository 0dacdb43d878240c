package experiments

import (
	"context"
	"errors"
	"fmt"

	"chameleon/internal/config"
	"chameleon/internal/dse"
	"chameleon/internal/sim"
)

// pruneWaveSize is a pruned sweep's wave: a constant, not the
// concurrency bound, so the sweep's outcome is the same at any Parallelism.
const pruneWaveSize = 32

// RunDSE runs a design-space sweep: Options axes seed the spec's empty
// axes (see Sweep) and supply each cell's budgets. The cells run
// through pool in index-ordered waves, of pruneWaveSize with
// PruneAfter set, between which the sweep's running front
// (dse.Frontier) may condemn an axis value and skip its remaining
// cells. A wave's cell errors are joined into one. As in a figure run,
// each unique Cell.Hash is simulated once: a point whose hash an
// earlier point has shares its values and Cached flag and counts in
// Evaluated (and Cached), so Evaluated + Pruned is TotalCells.
// Progress counts expanded cells; every point carries its Cell.Hash.
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
	frontier := dse.NewFrontier(spec)
	known := map[string]dse.Point{} // the values of each hash resolved so far
	for next := 0; next < len(cells); {
		// The next wave, in index order, less the condemned cells.
		var wave []dse.Point
		var runs []Cell
		var hashes []string
		var errs []error
		for ; next < len(cells) && len(wave) < waveSize; next++ {
			c := cells[next]
			if frontier.Prunes(c) {
				res.Pruned++
				o.progress(res.Evaluated, res.Cached, res.Pruned, res.TotalCells)
				continue
			}
			run, err := SweepCell(spec, c, o.Instructions, o.Warmup)
			if err != nil {
				errs = append(errs, fmt.Errorf("%s/%s (cell %d): %w", c.Policy, c.Workload, c.Index, err))
				continue
			}
			h := run.Hash()
			wave, runs, hashes = append(wave, dse.Point{Cell: c, Hash: h}), append(runs, run), append(hashes, h)
		}
		if len(errs) > 0 {
			return nil, errors.Join(errs...)
		}
		evaluated := func(idx []int, p dse.Point) {
			known[hashes[idx[0]]] = p
			for _, i := range idx {
				wave[i].Values, wave[i].Cached = p.Values, p.Cached
				res.Evaluated++
				if p.Cached {
					res.Cached++
				}
				o.progress(res.Evaluated, res.Cached, res.Pruned, res.TotalCells)
			}
		}
		// A hash an earlier wave resolved takes its values; the rest run.
		var todo [][]int
		for _, idx := range byHash(hashes) {
			if p, ok := known[hashes[idx[0]]]; ok {
				evaluated(idx, p)
			} else {
				todo = append(todo, idx)
			}
		}
		err := o.pool(ctx, runs, todo, func(idx []int, r *sim.Result, cached bool) error {
			vals, err := dse.Values(r.Snapshot(), spec.Objectives)
			if err == nil {
				evaluated(idx, dse.Point{Values: vals, Cached: cached})
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		frontier.Add(wave)
		res.Points = append(res.Points, wave...)
	}
	res.Front, res.Dominated = frontier.Front()
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
