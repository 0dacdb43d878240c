package experiments

import (
	"context"

	"chameleon/internal/config"
	"chameleon/internal/dse"
)

// RunDSE executes a design-space sweep in-process, sharing the figure
// runner's conventions: Options supply the per-cell instruction and
// warm-up budgets, bounded parallelism, context cancellation through
// every cell, and joined per-cell errors. Options axes seed the sweep's
// empty axes (see Sweep), so existing experiment configs lift directly
// into sweeps.
func RunDSE(ctx context.Context, o Options, spec dse.Spec) (*dse.Result, error) {
	o = o.Defaults()
	spec, err := o.Sweep(spec)
	if err != nil {
		return nil, err
	}

	ro := dse.RunOptions{
		Parallelism: o.Parallelism,
		Evaluate: func(ctx context.Context, c dse.Cell) (dse.Eval, error) {
			cell, err := SweepCell(spec, c, o.Instructions, o.Warmup)
			if err != nil {
				return dse.Eval{}, err
			}
			res, err := o.simulate(ctx, cell)
			return dse.Eval{Result: res}, err
		},
	}
	if o.Progress != nil {
		ro.Progress = func(done, _, pruned, total int) { o.Progress(done+pruned, total) }
	}
	return spec.Run(ctx, ro)
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
