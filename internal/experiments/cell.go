package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"

	"chameleon/internal/config"
	"chameleon/internal/dse"
	"chameleon/internal/memtrace"
	"chameleon/internal/osmodel"
	"chameleon/internal/policy"
	"chameleon/internal/sim"
	"chameleon/internal/workload"
)

// A Cell is one simulation: a design on a workload (or a recorded
// trace) on a machine, for a budget. Figure columns, DSE sweep cells
// (SweepCell) and chamd sim jobs all describe simulations as Cells.
// Options is the only code that turns a cell into simulator options
// and Hash is its only content hash, so producers that describe one
// simulation share one result. A Cell's JSON, AutoNUMA unset, is the
// chamd sim job spec of that simulation: the fields carry the spec's
// wire names and meanings.
type Cell struct {
	Policy sim.PolicyKind `json:"policy"`
	// Workload names a Table II workload; a "replay:<path>" workload
	// normalizes into TracePath, a recorded trace (internal/memtrace)
	// whose content hash Normalize fills into TraceSHA256.
	Workload    string `json:"workload,omitempty"`
	TracePath   string `json:"trace_path,omitempty"`
	TraceSHA256 string `json:"trace_sha256,omitempty"`
	Scale       uint64 `json:"scale"`           // capacity divisor, a power of two
	Ratio       int    `json:"ratio,omitempty"` // stacked:off-chip split; 0 keeps the machine's
	// BaselineGB is a flat baseline's unscaled capacity (designs that
	// require a baseline only; default 24).
	BaselineGB uint64 `json:"baseline_gb,omitempty"`
	// AutoNUMA is an AutoNUMA run's migration threshold (0: none).
	AutoNUMA     float64 `json:"autonuma,omitempty"`
	Seed         uint64  `json:"seed"`
	Instructions uint64  `json:"instructions"` // per-core measured budget
	Warmup       uint64  `json:"warmup"`       // per-core warm-up budget
	// TimelineEpochCycles is the timeline sampling epoch (default 1M
	// cycles). Every cell records a timeline, so its result is the same
	// bytes whichever producer ran it.
	TimelineEpochCycles uint64 `json:"timeline_epoch_cycles"`
	// CacheLevels and MemoryTiers overlay the scaled default machine
	// (empty keeps the default).
	CacheLevels []config.CacheLevelConfig `json:"cache_levels,omitempty"`
	MemoryTiers []config.MemTierConfig    `json:"memory_tiers,omitempty"`
}

// Normalize validates the cell and returns its canonical form: a
// replay workload becomes a trace path with its content hash, the
// baseline and the timeline epoch take their defaults (a design
// without a baseline drops it), an overlay equal to the scaled
// default's, a ratio that leaves the tier split as it is and an
// AutoNUMA threshold that enables nothing are dropped. Cells that
// simulate the same thing normalize equal.
func (c Cell) Normalize() (Cell, error) {
	if c.Scale == 0 || c.Scale&(c.Scale-1) != 0 {
		return c, fmt.Errorf("scale must be a power of two, got %d", c.Scale)
	}
	if c.Policy == "" {
		return c, fmt.Errorf("a simulation requires a policy (see GET /v1/policies)")
	}
	desc, err := policy.Lookup(string(c.Policy))
	if err != nil {
		return c, err
	}
	if tiers := max(len(c.MemoryTiers), 2); desc.RequiredTiers() > tiers {
		return c, fmt.Errorf("policy %q needs %d memory tiers, spec has %d",
			c.Policy, desc.RequiredTiers(), tiers)
	}
	if len(c.CacheLevels) > 0 || len(c.MemoryTiers) > 0 {
		def := config.Default(c.Scale)
		if reflect.DeepEqual(c.CacheLevels, def.CacheLevels) {
			c.CacheLevels = nil
		}
		if reflect.DeepEqual(c.MemoryTiers, def.MemoryTiers) {
			c.MemoryTiers = nil
		}
	}
	// A machine that fails here is one the scale or the ratio starved
	// of a tier: reject it now rather than inside a simulation.
	cfg, err := c.machine()
	if err == nil {
		err = cfg.Validate()
	}
	if err != nil {
		return c, fmt.Errorf("scale %d, ratio %d: %w", c.Scale, c.Ratio, err)
	}
	if c.Ratio != 0 {
		base := c
		base.Ratio = 0
		if b, _ := base.machine(); reflect.DeepEqual(cfg.MemoryTiers, b.MemoryTiers) {
			c.Ratio = 0
		}
	}
	if path, ok := strings.CutPrefix(c.Workload, workload.ReplayPrefix); ok {
		// Both spellings of a replay normalize identically.
		if c.TracePath != "" && c.TracePath != path {
			return c, fmt.Errorf("workload %q and trace_path %q name different traces", c.Workload, c.TracePath)
		}
		c.TracePath, c.Workload = path, ""
	}
	switch {
	case c.TracePath != "":
		if c.Workload != "" {
			return c, fmt.Errorf("workload and trace_path are mutually exclusive")
		}
		tr, err := memtrace.LoadFile(c.TracePath)
		if err != nil {
			return c, fmt.Errorf("trace_path: %w", err)
		}
		c.TraceSHA256 = tr.SHA256()
	case c.Workload == "":
		return c, fmt.Errorf("a simulation requires a workload (see GET /v1/workloads) or a trace_path")
	default:
		if _, err := workload.ByName(c.Workload); err != nil {
			return c, err
		}
		c.TraceSHA256 = ""
	}
	if !desc.RequiresBaseline {
		c.BaselineGB = 0
	} else if c.BaselineGB == 0 {
		c.BaselineGB = 24
	}
	switch {
	case math.IsInf(c.AutoNUMA, 1):
		return c, fmt.Errorf("autonuma threshold must be finite")
	case !(c.AutoNUMA > 0): // negative or NaN: no AutoNUMA, as Options reads it
		c.AutoNUMA = 0
	}
	if c.TimelineEpochCycles == 0 {
		c.TimelineEpochCycles = 1_000_000
	}
	return c, nil
}

// Hash is the cell's content address: the SHA-256 of its fields, the
// trace path excluded (a trace is known by its content hash). Two
// normalized cells with equal hashes simulate identically.
func (c Cell) Hash() string {
	c.TracePath = ""
	b, err := json.Marshal(c)
	if err != nil {
		// A cell holds only plain data; Marshal cannot fail.
		panic(fmt.Sprintf("experiments: marshal cell: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// machine is the simulated machine: the scaled default with the
// hierarchy and memory-stack overlays, and the ratio applied.
func (c Cell) machine() (config.Config, error) {
	cfg := Options{Scale: c.Scale, CacheLevels: c.CacheLevels, MemoryTiers: c.MemoryTiers}.Config()
	if c.Ratio == 0 {
		return cfg, nil
	}
	return cfg.WithRatio(c.Ratio)
}

// Options builds the simulator options of a normalized cell. A trace
// cell loads its file and refuses one whose content changed since the
// cell was normalized.
func (c Cell) Options() (sim.Options, error) {
	cfg, err := c.machine()
	if err != nil {
		return sim.Options{}, err
	}
	o := sim.Options{
		Config:              cfg,
		Policy:              c.Policy,
		Seed:                c.Seed,
		WarmupInstructions:  c.Warmup,
		TimelineEpochCycles: c.TimelineEpochCycles,
	}
	if c.TracePath != "" {
		tr, err := memtrace.LoadFile(c.TracePath)
		if err != nil {
			return sim.Options{}, fmt.Errorf("trace_path: %w", err)
		}
		if got := tr.SHA256(); got != c.TraceSHA256 {
			return sim.Options{}, fmt.Errorf("trace_path: %s changed since submission (content hash %.12s, submitted %.12s)",
				c.TracePath, got, c.TraceSHA256)
		}
		srcs, err := tr.Sources()
		if err != nil {
			return sim.Options{}, err
		}
		// Replay footprints are already concrete; Scale does not apply.
		o.Workload = tr.RunProfile()
		o.Sources = srcs
	} else {
		prof, err := workload.ByName(c.Workload)
		if err != nil {
			return sim.Options{}, err
		}
		o.Workload = prof.Scale(c.Scale)
	}
	if c.BaselineGB > 0 {
		o.BaselineBytes = c.BaselineGB * config.GB / c.Scale
	}
	if c.AutoNUMA > 0 {
		o.AutoNUMA = AutoNUMA(c.AutoNUMA, c.Warmup, c.Instructions)
	}
	return o, nil
}

// AutoNUMA is the AutoNUMA configuration of a run of warmup +
// instructions per core at the given migration threshold. The paper's
// 10M-cycle scan epochs assume 500M-instruction runs; the epoch scales
// so a run of this length spans a comparable number of epochs:
// (warmup+instructions)/8 cycles, at least 100k, so 562,500 cycles at
// the 4M + 500k default budgets.
func AutoNUMA(threshold float64, warmup, instructions uint64) *osmodel.AutoNUMAConfig {
	epoch := max((warmup+instructions)/8, 100_000)
	return &osmodel.AutoNUMAConfig{EpochCycles: epoch, Threshold: threshold, ScanPages: 4096}
}

// Run simulates a normalized cell for its instruction budget; progress,
// when non-nil, sees every timeline point as it is sampled.
func (c Cell) Run(ctx context.Context, progress func(sim.TimelinePoint)) (*sim.Result, error) {
	o, err := c.Options()
	if err != nil {
		return nil, err
	}
	o.Progress = progress
	s, err := sim.New(o)
	if err != nil {
		return nil, err
	}
	return s.RunContext(ctx, c.Instructions)
}

// SweepCell is the normalized cell of one expanded sweep cell: its
// design, workload, ratio, scale and seed on the spec's hierarchy and
// tier variants, run for the given budgets.
func SweepCell(spec dse.Spec, c dse.Cell, instructions, warmup uint64) (Cell, error) {
	cell := Cell{Policy: sim.PolicyKind(c.Policy), Workload: c.Workload, Scale: c.Scale, Ratio: c.Ratio,
		Seed: c.Seed, Instructions: instructions, Warmup: warmup}
	if c.CacheVariant >= 0 {
		cell.CacheLevels = spec.CacheLevelVariants[c.CacheVariant]
	}
	if c.TierVariant >= 0 {
		cell.MemoryTiers = spec.MemoryTierVariants[c.TierVariant]
	}
	return cell.Normalize()
}
