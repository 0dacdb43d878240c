// Package experiments contains one driver per table and figure of the
// paper's evaluation (§III and §VI). Each driver returns a stats.Table
// whose rows mirror the corresponding figure; cmd/experiments renders
// them and EXPERIMENTS.md records paper-vs-measured values.
//
// The drivers run on a scaled-down machine (capacities and footprints
// divided by Options.Scale with all ratios preserved) so the full suite
// completes in minutes on a laptop. Scale 1 reproduces the paper's
// full-size 4 GB + 20 GB system.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

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
	// Progress, when non-nil, is called after each matrix cell
	// finishes with the number of completed cells and the total.
	// Calls are serialized under the matrix lock.
	Progress func(done, total int) `json:"-"`
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

// runOne builds and runs a single simulation.
func (o Options) runOne(opts sim.Options) (*sim.Result, error) {
	return o.runOneContext(context.Background(), opts)
}

// runOneContext builds and runs a single cancellable simulation.
func (o Options) runOneContext(ctx context.Context, opts sim.Options) (*sim.Result, error) {
	opts.Seed = o.Seed
	opts.WarmupInstructions = o.Warmup
	s, err := sim.New(opts)
	if err != nil {
		return nil, err
	}
	return s.RunContext(ctx, o.Instructions)
}

// Matrix holds one result per (policy, workload) pair.
type Matrix struct {
	Opts     Options
	Policies []sim.PolicyKind
	// Results[policy][workload]
	Results map[sim.PolicyKind]map[string]*sim.Result
}

// standardPolicies is the set used by the main evaluation figures.
func standardPolicies() []sim.PolicyKind {
	return []sim.PolicyKind{
		sim.PolicyFlat, // run twice: 20 GB and 24 GB handled separately
		sim.PolicyNUMAFlat,
		sim.PolicyAlloy,
		sim.PolicyPoM,
		sim.PolicyPolymorphic,
		sim.PolicyChameleon,
		sim.PolicyChameleonOpt,
	}
}

// job names one simulation of the matrix.
type job struct {
	policy   sim.PolicyKind
	tag      string // result key qualifier for flat baselines
	workload string
	opts     sim.Options
}

// The 20 GB flat baseline is stored under PolicyFlat, the 24 GB one
// under policyFlat24 (a matrix-only key, not a registered design).
const policyFlat24 sim.PolicyKind = "flat-24"

// RunMatrix executes every policy on every selected workload, reusing
// one run across all the figures that need it (15-20 and 22).
func RunMatrix(o Options) (*Matrix, error) {
	return RunMatrixContext(context.Background(), o)
}

// RunMatrixContext is RunMatrix with cancellation: the context is
// passed down into every cell's simulation, so a deadline or cancel
// stops the whole sweep. Cells that fail do not abort their peers;
// every failure is reported, joined into one error.
func RunMatrixContext(ctx context.Context, o Options) (*Matrix, error) {
	o = o.Defaults()
	cfg := o.Config()

	pols := o.Policies
	if len(pols) == 0 {
		pols = standardPolicies()
	}
	matrixPols := make([]sim.PolicyKind, 0, len(pols)+1)
	var jobs []job
	for _, name := range o.Workloads {
		prof, err := o.profile(name)
		if err != nil {
			return nil, err
		}
		for _, pk := range pols {
			so := sim.Options{Config: cfg, Policy: pk, Workload: prof}
			switch pk {
			case sim.PolicyFlat:
				so20 := so
				so20.BaselineBytes = 20 * config.GB / o.Scale
				jobs = append(jobs, job{sim.PolicyFlat, "20", name, so20})
				so24 := so
				so24.BaselineBytes = 24 * config.GB / o.Scale
				jobs = append(jobs, job{policyFlat24, "24", name, so24})
			default:
				jobs = append(jobs, job{pk, "", name, so})
			}
		}
	}
	for _, pk := range pols {
		matrixPols = append(matrixPols, pk)
		if pk == sim.PolicyFlat {
			matrixPols = append(matrixPols, policyFlat24)
		}
	}

	m := &Matrix{Opts: o, Policies: matrixPols,
		Results: map[sim.PolicyKind]map[string]*sim.Result{}}
	var mu sync.Mutex
	var errs []error
	done := 0
	sem := make(chan struct{}, o.Parallelism)
	var wg sync.WaitGroup
	for _, j := range jobs {
		if ctx.Err() != nil {
			// Don't launch cells that would fail immediately; the
			// cancellation itself is reported below.
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(j job) {
			defer wg.Done()
			defer func() { <-sem }()
			res, err := o.runOneContext(ctx, j.opts)
			mu.Lock()
			defer mu.Unlock()
			done++
			if err != nil {
				errs = append(errs, fmt.Errorf("%v/%s: %w", j.policy, j.workload, err))
			} else {
				if m.Results[j.policy] == nil {
					m.Results[j.policy] = map[string]*sim.Result{}
				}
				m.Results[j.policy][j.workload] = res
			}
			if o.Progress != nil {
				o.Progress(done, len(jobs))
			}
		}(j)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		errs = append(errs, err)
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	return m, nil
}

// PolicyKey returns the stable wire name for a matrix policy column;
// the two flat baselines are distinguished by capacity.
func PolicyKey(pk sim.PolicyKind) string {
	if pk == sim.PolicyFlat {
		return "flat-20"
	}
	return pk.String()
}

// ByName re-keys the results by policy wire name, for JSON consumers
// that cannot use integer PolicyKind keys.
func (m *Matrix) ByName() map[string]map[string]*sim.Result {
	out := make(map[string]map[string]*sim.Result, len(m.Results))
	for pk, rows := range m.Results {
		inner := make(map[string]*sim.Result, len(rows))
		for wl, r := range rows {
			inner[wl] = r
		}
		out[PolicyKey(pk)] = inner
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
