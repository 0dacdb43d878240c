// Package experiments reproduces the tables and figures of the paper's
// evaluation (§III and §VI). Figures holds one entry per table and
// figure: the simulations it needs, declared as a grid of workloads x
// machine variants before anything runs, and a render step that turns
// their results into a stats.Table whose rows mirror the figure. Run
// simulates each unique cell of the selected figures once and renders
// them; cmd/experiments prints the tables and EXPERIMENTS.md records
// paper-vs-measured values.
//
// The drivers run on a scaled-down machine (capacities and footprints
// divided by Options.Scale with all ratios preserved) so the full suite
// completes in minutes on a laptop. Scale 1 reproduces the paper's
// full-size 4 GB + 20 GB system.
package experiments

import (
	"context"
	"fmt"
	"runtime"

	"chameleon/internal/config"
	"chameleon/internal/sim"
	"chameleon/internal/trace"
	"chameleon/internal/workload"
)

// Options control the scale and length of every experiment.
type Options struct {
	// Scale divides DRAM capacities and workload footprints (power of
	// two). Default 256.
	Scale uint64
	// Instructions is the measured per-core instruction budget.
	// Default 500,000.
	Instructions uint64
	// Warmup is the per-core fast-forward budget that converges caches
	// and remapping state before measurement. Default 4,000,000.
	Warmup uint64
	// Seed makes every run deterministic. Default 42.
	Seed uint64
	// Workloads restricts the workload set (nil = all of Table II).
	Workloads []string
	// Policies restricts the policy set (nil = the paper's standard
	// evaluation designs). Any name registered with policy.Register is
	// valid; "flat" expands to the 20 GB and 24 GB DDR baselines.
	Policies []sim.PolicyKind
	// CacheLevels overrides the machine's cache hierarchy (nil = the
	// scaled Table I three-level stack). Every driver resolves its
	// levels from the resulting config, so a 2- or 4-level sweep needs
	// no further plumbing.
	CacheLevels []config.CacheLevelConfig
	// MemoryTiers overrides the machine's memory stack (nil = the
	// scaled Table I stacked + off-chip DRAM pair). Three-tier
	// sweeps — say stacked DRAM, off-chip DRAM, NVM — plug in here
	// and flow through every driver unchanged.
	MemoryTiers []config.MemTierConfig
	// Parallelism bounds concurrent simulations. Zero and negative
	// values default to GOMAXPROCS (a negative value would otherwise
	// panic constructing the semaphore channel).
	Parallelism int
	// Progress, when non-nil, is called after each cell resolves with
	// the running counts: cells done (cached included), cells a cache
	// served, cells a sweep pruned without simulation, and the total.
	// A figure run or a matrix counts its unique cells; a DSE sweep
	// counts its expanded cells. Calls are serialized.
	Progress func(done, cached, pruned, total int) `json:"-"`
	// Simulate, when non-nil, runs each normalized cell in place of an
	// in-process simulation and reports whether a cache served the
	// result; chamd's matrix and dse jobs resolve cells through the
	// cluster's result cache with it. Calls are concurrent, at most
	// Parallelism at a time.
	Simulate func(ctx context.Context, c Cell) (r *sim.Result, cached bool, err error) `json:"-"`
}

// Defaults fills in zero fields.
func (o Options) Defaults() Options {
	if o.Scale == 0 {
		o.Scale = 256
	}
	if o.Instructions == 0 {
		o.Instructions = 500_000
	}
	if o.Warmup == 0 {
		o.Warmup = 4_000_000
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if len(o.Workloads) == 0 {
		o.Workloads = workload.Names()
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// Config resolves the machine configuration every driver simulates:
// the scaled Table I defaults with the Options' cache-hierarchy
// override applied.
func (o Options) Config() config.Config {
	cfg := config.Default(o.Scale)
	if len(o.CacheLevels) > 0 {
		cfg.CacheLevels = o.CacheLevels
	}
	if len(o.MemoryTiers) > 0 {
		cfg.MemoryTiers = config.CloneTiers(o.MemoryTiers)
	}
	return cfg
}

// profile fetches and scales a workload.
func (o Options) profile(name string) (trace.Profile, error) {
	p, err := workload.ByName(name)
	if err != nil {
		return trace.Profile{}, err
	}
	return p.Scale(o.Scale), nil
}

// Matrix holds one result per (policy, workload) pair.
type Matrix struct {
	Opts     Options
	Policies []sim.PolicyKind
	// Results[policy][workload]
	Results map[sim.PolicyKind]map[string]*sim.Result
}

// The 20 GB flat baseline is stored under PolicyFlat, the 24 GB one
// under policyFlat24 (a matrix-only key, not a registered design).
const policyFlat24 sim.PolicyKind = "flat-24"

// matrixColumns are the matrix's machine variants: the selected
// policies (by default the paper's evaluation designs), with flat
// expanded to its 20 GB and 24 GB baselines.
func matrixColumns(o Options) []Cell {
	pols := o.Policies
	if len(pols) == 0 {
		pols = []sim.PolicyKind{sim.PolicyFlat, sim.PolicyNUMAFlat, sim.PolicyAlloy, sim.PolicyPoM,
			sim.PolicyPolymorphic, sim.PolicyChameleon, sim.PolicyChameleonOpt}
	}
	var cols []Cell
	for _, pk := range pols {
		if pk == sim.PolicyFlat {
			cols = append(cols, Cell{Policy: pk, BaselineGB: 20}, Cell{Policy: pk, BaselineGB: 24})
		} else {
			cols = append(cols, Cell{Policy: pk})
		}
	}
	return cols
}

// newMatrix files a grid whose rows begin with matrixColumns under
// their policies.
func newMatrix(o Options, res [][]*sim.Result) *Matrix {
	m := &Matrix{Opts: o, Results: map[sim.PolicyKind]map[string]*sim.Result{}}
	for _, c := range matrixColumns(o) {
		pk := c.Policy
		if c.BaselineGB == 24 {
			pk = policyFlat24
		}
		m.Policies = append(m.Policies, pk)
		m.Results[pk] = map[string]*sim.Result{}
	}
	for j, row := range res {
		for i, pk := range m.Policies {
			m.Results[pk][o.Workloads[j]] = row[i]
		}
	}
	return m
}

// RunMatrix executes every policy on every selected workload: the
// cells behind Table II and Figures 2a, 15-20 and 22.
func RunMatrix(o Options) (*Matrix, error) {
	return RunMatrixContext(context.Background(), o)
}

// RunMatrixContext is RunMatrix with cancellation: the context is
// passed down into every cell's simulation, so a deadline or cancel
// stops the whole sweep. Cells that fail do not abort their peers;
// every failure is reported, joined into one error.
func RunMatrixContext(ctx context.Context, o Options) (*Matrix, error) {
	o = o.Defaults()
	res, err := o.run(ctx, []Figure{{Name: "matrix", columns: matrixColumns}})
	if err != nil {
		return nil, err
	}
	return newMatrix(o, res[0]), nil
}

// ByName re-keys the results by policy wire name, for JSON consumers
// that cannot use integer PolicyKind keys; the two flat baselines are
// "flat-20" and "flat-24".
func (m *Matrix) ByName() map[string]map[string]*sim.Result {
	out := make(map[string]map[string]*sim.Result, len(m.Results))
	for pk, rows := range m.Results {
		inner := make(map[string]*sim.Result, len(rows))
		for wl, r := range rows {
			inner[wl] = r
		}
		if pk == sim.PolicyFlat {
			pk = "flat-20"
		}
		out[pk.String()] = inner
	}
	return out
}

// get fetches one result, with a descriptive panic on misuse (matrix
// access bugs are programming errors, not runtime conditions).
func (m *Matrix) get(p sim.PolicyKind, wl string) *sim.Result {
	r := m.Results[p][wl]
	if r == nil {
		panic(fmt.Sprintf("experiments: missing result for %v/%s", p, wl))
	}
	return r
}

// Metric fetches one scalar from a cell's unified stats snapshot (see
// sim.Result.Snapshot for the key namespace). An unknown key is a
// programming error in a figure emitter and panics.
func (m *Matrix) Metric(p sim.PolicyKind, wl, key string) float64 {
	snap := m.get(p, wl).Snapshot()
	v, ok := snap[key]
	if !ok {
		panic(fmt.Sprintf("experiments: no metric %q in %v/%s snapshot", key, p, wl))
	}
	return v
}
