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
//
// Like the figure plan (Options.run), a sweep simulates each unique
// Cell.Hash once: axis values that describe one machine expand to
// separate points, and a point whose hash an earlier point of the
// sweep already has (a duplicate) shares that point's values and
// Cached flag. A duplicate counts in Evaluated, and in Cached when its
// original does, so Evaluated + Pruned is TotalCells.
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
	// known holds the first point of every hash evaluated so far.
	known := map[string]dse.Point{}
	for next := 0; next < len(cells); {
		// The next wave in cell-index order, without the cells an
		// earlier wave condemned.
		var wave []dse.Cell
		var hashes []string
		var unique []Cell
		var slots [][]int // per unique cell, the wave points it fills
		index := map[string]int{}
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
				continue
			}
			h := run.Hash()
			if _, ok := known[h]; !ok {
				u, ok := index[h]
				if !ok {
					u = len(unique)
					index[h] = u
					unique, slots = append(unique, run), append(slots, nil)
				}
				slots[u] = append(slots[u], len(wave))
			}
			wave, hashes = append(wave, c), append(hashes, h)
		}
		if len(errs) > 0 {
			return nil, errors.Join(errs...)
		}
		points := make([]dse.Point, len(wave))
		evaluated := func(w int, p dse.Point) {
			points[w] = dse.Point{Cell: wave[w], Values: p.Values, Hash: hashes[w], Cached: p.Cached}
			res.Evaluated++
			if p.Cached {
				res.Cached++
			}
			o.progress(res.Evaluated, res.Cached, res.Pruned, res.TotalCells)
		}
		for w, h := range hashes {
			if p, ok := known[h]; ok {
				evaluated(w, p)
			}
		}
		err := o.pool(ctx, unique, func(u int, r *sim.Result, cached bool) error {
			vals, err := dse.Values(r.Snapshot(), spec.Objectives)
			if err != nil {
				return err
			}
			p := dse.Point{Values: vals, Cached: cached}
			known[hashes[slots[u][0]]] = p
			for _, w := range slots[u] {
				evaluated(w, p)
			}
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
