// Package dse is the design-space-exploration service core: a
// declarative sweep specification over the simulator's pluggable axes
// (policy, workload, stacked ratio, capacity scale, seed, cache
// hierarchy, memory-tier stack), deterministic cross-product expansion
// into cells, a strict-dominance Pareto filter over configurable
// objectives, and the early-pruning decision that skips dominated
// configurations between waves of a sweep.
//
// The package is sweep algebra only: it runs no simulation and starts
// no goroutine. experiments.RunDSE schedules a sweep's cells through
// the experiments runner, in process or, for chamd's dse jobs, through
// the server's content-addressed result cache. Grounded in "Enabling
// Design Space Exploration of DRAM Caches in Emerging Memory Systems"
// (arXiv 2303.13029) and the multi-objective performance/capacity/
// energy framing of arXiv 1810.12573.
package dse

import (
	"fmt"

	"chameleon/internal/config"
	"chameleon/internal/policy"
	"chameleon/internal/workload"
)

// Objective senses: whether larger or smaller values win.
const (
	SenseMax = "max"
	SenseMin = "min"
)

// Derived objective keys, computed from a result's unified stats
// snapshot by summing per-tier counters (so they track whatever memory
// stack a cell configures, two tiers or five).
const (
	// KeyTotalCapacity is the summed capacity of every memory tier
	// (stacked + off-chip + anything deeper), in bytes.
	KeyTotalCapacity = "total_capacity_bytes"
	// KeyTotalEnergy is the summed energy of every memory tier over the
	// run, in nanojoules.
	KeyTotalEnergy = "total_energy_nj"
)

// Objective names one optimisation axis: a key into the run's unified
// stats snapshot (sim.Result.Snapshot) or one of the derived Key*
// totals, plus the sense in which it is optimised.
type Objective struct {
	Key   string `json:"key"`
	Sense string `json:"sense"`
}

// DefaultObjectives is the paper-shaped front: performance up,
// provisioned memory capacity down, DRAM energy down.
func DefaultObjectives() []Objective {
	return []Objective{
		{Key: "ipc_geomean", Sense: SenseMax},
		{Key: KeyTotalCapacity, Sense: SenseMin},
		{Key: KeyTotalEnergy, Sense: SenseMin},
	}
}

// defaultPolicies is the sweep's policy axis when the spec names none:
// the paper's standard evaluation designs. Deliberately a fixed list
// rather than the live registry, so a spec's normalized form (and its
// content hash) does not depend on which extra designs happen to be
// registered in the submitting process.
func defaultPolicies() []string {
	return []string{"flat", "numa-flat", "alloy", "pom", "polymorphic", "chameleon", "chameleon-opt"}
}

// Spec is a declarative sweep: the cross product of every listed axis.
// Empty axes take defaults (all Table II workloads, the standard
// policy set, one default ratio/scale/seed, the configured default
// cache hierarchy and memory stack). CacheLevelVariants and
// MemoryTierVariants are list-valued axes: each entry is one complete
// hierarchy or tier stack the sweep substitutes for the default.
type Spec struct {
	Policies  []string `json:"policies,omitempty"`
	Workloads []string `json:"workloads,omitempty"`
	// Ratios sweeps the stacked:off-chip capacity ratio (3, 5, 7 in the
	// paper); 0 keeps the configured default split.
	Ratios []int `json:"ratios,omitempty"`
	// Scales sweeps the capacity-scale divisor (power of two; 1 is the
	// full-size machine).
	Scales []uint64 `json:"scales,omitempty"`
	// Seeds replicates every configuration across random seeds. Results
	// are threads-invariant, so seeds are the only replication axis.
	Seeds []uint64 `json:"seeds,omitempty"`
	// CacheLevelVariants lists complete cache hierarchies to sweep
	// (each ordered core-outward, see config.CacheLevelConfig).
	CacheLevelVariants [][]config.CacheLevelConfig `json:"cache_level_variants,omitempty"`
	// MemoryTierVariants lists complete memory stacks to sweep (each
	// ordered nearest-first, see config.MemTierConfig).
	MemoryTierVariants [][]config.MemTierConfig `json:"memory_tier_variants,omitempty"`

	// Objectives configure the Pareto front (default: IPC up, total
	// capacity down, total memory energy down).
	Objectives []Objective `json:"objectives,omitempty"`
	// PruneAfter enables the per-axis early-pruning heuristic: once an
	// axis value has accumulated PruneAfter evaluated cells, all of
	// them strictly dominated and none on the current front, remaining
	// cells carrying that value are skipped without simulation. 0
	// disables pruning (full enumeration). The heuristic is applied at
	// deterministic wave boundaries, so a sweep's outcome is identical
	// at any runner concurrency.
	PruneAfter int `json:"prune_after,omitempty"`
}

// Cell is one expanded configuration of a sweep. CacheVariant and
// TierVariant index the spec's variant lists; -1 selects the default
// hierarchy or memory stack.
type Cell struct {
	Index        int    `json:"index"`
	Policy       string `json:"policy"`
	Workload     string `json:"workload"`
	Ratio        int    `json:"ratio,omitempty"`
	Scale        uint64 `json:"scale"`
	Seed         uint64 `json:"seed"`
	CacheVariant int    `json:"cache_variant"`
	TierVariant  int    `json:"tier_variant"`
}

// Normalize fills defaults and validates every axis value. The
// returned spec is canonical: specs that normalize equal expand to the
// same cells (and, through the server, hash identically).
func (s Spec) Normalize() (Spec, error) {
	if len(s.Policies) == 0 {
		s.Policies = defaultPolicies()
	}
	for _, p := range s.Policies {
		if _, err := policy.Lookup(p); err != nil {
			return s, fmt.Errorf("dse: %w", err)
		}
	}
	if len(s.Workloads) == 0 {
		s.Workloads = workload.Names()
	}
	for _, w := range s.Workloads {
		if workload.IsReplay(w) {
			return s, fmt.Errorf("dse: workload %q: trace replays cannot join a sweep (their footprint is fixed; record per-scale traces and submit sim jobs instead)", w)
		}
		if _, err := workload.ByName(w); err != nil {
			return s, fmt.Errorf("dse: %w", err)
		}
	}
	if len(s.Ratios) == 0 {
		s.Ratios = []int{0}
	}
	if len(s.Scales) == 0 {
		s.Scales = []uint64{256}
	}
	for _, sc := range s.Scales {
		if sc == 0 || sc&(sc-1) != 0 {
			return s, fmt.Errorf("dse: scale must be a power of two, got %d", sc)
		}
	}
	if len(s.Seeds) == 0 {
		s.Seeds = []uint64{42}
	}
	for _, sd := range s.Seeds {
		if sd == 0 {
			return s, fmt.Errorf("dse: seed 0 is reserved (the simulator treats it as unset)")
		}
	}
	// Variant lists are validated as complete overlays on an
	// otherwise-default machine, so errors can only concern the variant
	// itself. Ratios are checked against every tier variant (a ratio
	// re-splits the first two tiers' combined capacity).
	for i, cl := range s.CacheLevelVariants {
		if len(cl) == 0 {
			return s, fmt.Errorf("dse: cache_level_variants[%d] is empty (omit the axis to keep the default hierarchy)", i)
		}
		cfg := config.Default(s.Scales[0])
		cfg.CacheLevels = cl
		if err := cfg.Validate(); err != nil {
			return s, fmt.Errorf("dse: cache_level_variants[%d]: %w", i, err)
		}
	}
	for i, mt := range s.MemoryTierVariants {
		if len(mt) == 0 {
			return s, fmt.Errorf("dse: memory_tier_variants[%d] is empty (omit the axis to keep the default stack)", i)
		}
		cfg := config.Default(s.Scales[0])
		cfg.MemoryTiers = config.CloneTiers(mt)
		if err := cfg.Validate(); err != nil {
			return s, fmt.Errorf("dse: memory_tier_variants[%d]: %w", i, err)
		}
		for _, r := range s.Ratios {
			if r == 0 {
				continue
			}
			if _, err := cfg.WithRatio(r); err != nil {
				return s, fmt.Errorf("dse: ratio %d on memory_tier_variants[%d]: %w", r, i, err)
			}
		}
	}
	if len(s.MemoryTierVariants) == 0 {
		for _, r := range s.Ratios {
			if r == 0 {
				continue
			}
			if _, err := config.Default(s.Scales[0]).WithRatio(r); err != nil {
				return s, fmt.Errorf("dse: ratio %d: %w", r, err)
			}
		}
	}
	if len(s.Objectives) == 0 {
		s.Objectives = DefaultObjectives()
	}
	seen := map[string]bool{}
	for i, o := range s.Objectives {
		if o.Key == "" {
			return s, fmt.Errorf("dse: objectives[%d] has no key", i)
		}
		if o.Sense != SenseMax && o.Sense != SenseMin {
			return s, fmt.Errorf("dse: objectives[%d] (%s): sense must be %q or %q, got %q",
				i, o.Key, SenseMax, SenseMin, o.Sense)
		}
		if seen[o.Key] {
			return s, fmt.Errorf("dse: duplicate objective key %q", o.Key)
		}
		seen[o.Key] = true
	}
	if s.PruneAfter < 0 {
		return s, fmt.Errorf("dse: prune_after must be non-negative, got %d", s.PruneAfter)
	}
	return s, nil
}

// variantIndices returns the axis index list for a variant axis: [-1]
// (the default configuration) when no variants are listed, else one
// index per variant.
func variantIndices(n int) []int {
	if n == 0 {
		return []int{-1}
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// tierCount returns the number of memory tiers cell combinations with
// tier variant tv configure (the default stack has two).
func (s Spec) tierCount(tv int) int {
	if tv < 0 {
		return 2
	}
	return len(s.MemoryTierVariants[tv])
}

// Expand enumerates the sweep's cells in a fixed, documented order:
// tier variant, then cache variant, then policy, workload, ratio,
// scale, seed (innermost). Combinations whose policy needs more memory
// tiers than the cell's stack provides are skipped — a sweep may mix
// two- and three-tier stacks with policies of either depth — so cell
// indices are dense over the valid combinations. Call on a normalized
// spec; Expand re-normalizes defensively and reports a sweep that
// expands to nothing.
func (s Spec) Expand() ([]Cell, error) {
	s, err := s.Normalize()
	if err != nil {
		return nil, err
	}
	tierIdx := variantIndices(len(s.MemoryTierVariants))
	cacheIdx := variantIndices(len(s.CacheLevelVariants))
	var cells []Cell
	for _, tv := range tierIdx {
		tiers := s.tierCount(tv)
		for _, cv := range cacheIdx {
			for _, pol := range s.Policies {
				desc, err := policy.Lookup(pol)
				if err != nil {
					return nil, fmt.Errorf("dse: %w", err)
				}
				if desc.RequiredTiers() > tiers {
					continue // policy needs a deeper stack than this variant
				}
				for _, wl := range s.Workloads {
					for _, r := range s.Ratios {
						for _, sc := range s.Scales {
							for _, sd := range s.Seeds {
								cells = append(cells, Cell{
									Index: len(cells), Policy: pol, Workload: wl,
									Ratio: r, Scale: sc, Seed: sd,
									CacheVariant: cv, TierVariant: tv,
								})
							}
						}
					}
				}
			}
		}
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("dse: sweep expands to no runnable cells (every policy × tier-stack combination is incompatible)")
	}
	return cells, nil
}
