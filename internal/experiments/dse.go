package experiments

import (
	"context"

	"chameleon/internal/config"
	"chameleon/internal/dse"
	"chameleon/internal/policy"
	"chameleon/internal/sim"
	"chameleon/internal/workload"
)

// RunDSE executes a design-space sweep in-process, sharing the figure
// runner's conventions: Options supply the per-cell instruction and
// warm-up budgets, bounded parallelism, context cancellation through
// every cell, and joined per-cell errors. Options axes (Scale, Seed,
// Workloads, Policies, CacheLevels, MemoryTiers) seed the corresponding
// sweep axis when the spec leaves it empty, so existing experiment
// configs lift directly into sweeps.
func RunDSE(ctx context.Context, o Options, spec dse.Spec) (*dse.Result, error) {
	o = o.Defaults()
	if len(spec.Scales) == 0 {
		spec.Scales = []uint64{o.Scale}
	}
	if len(spec.Seeds) == 0 {
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
	spec, err := spec.Normalize()
	if err != nil {
		return nil, err
	}

	ro := dse.RunOptions{
		Parallelism: o.Parallelism,
		Evaluate: func(ctx context.Context, c dse.Cell) (dse.Eval, error) {
			res, err := o.runCell(ctx, spec, c)
			return dse.Eval{Result: res}, err
		},
	}
	if o.Progress != nil {
		ro.Progress = func(done, _, pruned, total int) { o.Progress(done+pruned, total) }
	}
	return spec.Run(ctx, ro)
}

// runCell simulates one sweep cell on its own scaled machine.
func (o Options) runCell(ctx context.Context, spec dse.Spec, c dse.Cell) (*sim.Result, error) {
	cfg := config.Default(c.Scale)
	if c.CacheVariant >= 0 {
		cfg.CacheLevels = spec.CacheLevelVariants[c.CacheVariant]
	}
	if c.TierVariant >= 0 {
		cfg.MemoryTiers = config.CloneTiers(spec.MemoryTierVariants[c.TierVariant])
	}
	if c.Ratio > 0 {
		var err error
		if cfg, err = cfg.WithRatio(c.Ratio); err != nil {
			return nil, err
		}
	}
	prof, err := workload.ByName(c.Workload)
	if err != nil {
		return nil, err
	}
	so := sim.Options{
		Config:             cfg,
		Policy:             sim.PolicyKind(c.Policy),
		Workload:           prof.Scale(c.Scale),
		Seed:               c.Seed,
		WarmupInstructions: o.Warmup,
	}
	desc, err := policy.Lookup(c.Policy)
	if err != nil {
		return nil, err
	}
	if desc.RequiresBaseline {
		so.BaselineBytes = 24 * config.GB / c.Scale
	}
	return o.simulate(ctx, so)
}
