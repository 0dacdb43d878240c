package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"chameleon/internal/config"
	"chameleon/internal/dse"
	"chameleon/internal/experiments"
	"chameleon/internal/policy"
	"chameleon/internal/sim"
	"chameleon/internal/workload"
)

// Job kinds.
const (
	KindSim    = "sim"    // one simulation (policy × workload)
	KindMatrix = "matrix" // the full evaluation matrix (experiments.RunMatrix)
	KindDSE    = "dse"    // a design-space sweep with Pareto-front extraction (internal/dse)
)

// maxDSECells bounds a single DSE job's expansion so one submission
// cannot enqueue an unbounded amount of simulation.
const maxDSECells = 16384

// JobSpec is the wire-format description of one job. Zero fields take
// the library defaults (Scale 256, 500k instructions, 4M warm-up,
// seed 42). The canonical hash of a normalized spec keys the result
// cache, so two submissions that normalize identically share one
// simulation.
type JobSpec struct {
	// Kind is "sim" (default) or "matrix".
	Kind string `json:"kind,omitempty"`

	// Sim fields (Kind == "sim").
	Policy   string `json:"policy,omitempty"`
	Workload string `json:"workload,omitempty"`
	// TracePath replays a server-side binary trace recording
	// (internal/memtrace, see cmd/chameleon-trace) instead of a
	// synthetic workload; mutually exclusive with Workload. A
	// "replay:<path>" Workload normalizes into this field. The file is
	// fully validated at submission and its content hash recorded in
	// TraceSHA256, so the result cache keys on what the trace says, not
	// where it lives.
	TracePath string `json:"trace_path,omitempty"`
	// TraceSHA256 is the hex content hash of the trace file, filled by
	// Normalize (client-supplied values are overwritten). It is part of
	// the cache hash — TracePath is not — so renaming a trace file
	// still hits the cache and editing one misses it.
	TraceSHA256 string `json:"trace_sha256,omitempty"`
	// BaselineGB is the flat baseline's unscaled capacity (policy
	// "flat" only; default 24).
	BaselineGB uint64 `json:"baseline_gb,omitempty"`
	// Ratio overrides the stacked:off-chip capacity ratio (3, 5, 7).
	Ratio int `json:"ratio,omitempty"`
	// TimelineEpochCycles sets the progress-sampling epoch in
	// simulated cycles (default 1,000,000).
	TimelineEpochCycles uint64 `json:"timeline_epoch_cycles,omitempty"`

	// Matrix fields (Kind == "matrix").
	Workloads []string `json:"workloads,omitempty"`
	// Policies restricts the matrix's policy set (default: the paper's
	// standard evaluation designs). Each name must be registered.
	Policies    []string `json:"policies,omitempty"`
	Parallelism int      `json:"parallelism,omitempty"`

	// DSE fields (Kind == "dse"): the declarative sweep. Shared
	// parameters below still apply per cell (Instructions, Warmup); the
	// sweep's own axes supersede Policy/Workload/Ratio, and a top-level
	// Scale or Seed seeds the corresponding axis when the sweep leaves
	// it empty. Every expanded cell is normalized into
	// a KindSim spec whose hash keys the shared result cache, so repeat
	// sweeps — and sweeps overlapping earlier sim jobs — are served from
	// cache.
	DSE *dse.Spec `json:"dse,omitempty"`

	// Shared simulation parameters.
	Scale        uint64 `json:"scale,omitempty"`
	Instructions uint64 `json:"instructions,omitempty"`
	Warmup       uint64 `json:"warmup,omitempty"` // 0 = default 4M; use 1 to disable
	Seed         uint64 `json:"seed,omitempty"`
	// CacheLevels replaces the default three-level cache hierarchy with
	// an explicit stack (ordered from the core outward; see
	// config.CacheLevelConfig). Empty keeps the scaled default.
	CacheLevels []config.CacheLevelConfig `json:"cache_levels,omitempty"`
	// MemoryTiers replaces the default stacked + off-chip DRAM pair
	// with an explicit memory stack (ordered nearest first; see
	// config.MemTierConfig — DRAM, NVM or CXL per tier). Empty keeps
	// the scaled default, so pre-tier specs hash and run unchanged.
	MemoryTiers []config.MemTierConfig `json:"memory_tiers,omitempty"`

	// TimeoutMS bounds the job's run time once started (wall clock).
	// 0 takes the server default. Excluded from the cache hash: the
	// deadline does not change the result, only whether one arrives.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Normalize fills defaults and validates the spec. The returned spec
// is canonical: specs that normalize equal produce equal hashes.
func (s JobSpec) Normalize() (JobSpec, error) {
	if s.Kind == "" {
		s.Kind = KindSim
	}
	// The shared parameters take the library's defaults.
	d := experiments.Options{Scale: s.Scale, Instructions: s.Instructions, Warmup: s.Warmup,
		Seed: s.Seed, Workloads: s.Workloads}.Defaults()
	s.Scale, s.Instructions, s.Warmup, s.Seed = d.Scale, d.Instructions, d.Warmup, d.Seed
	if s.Scale&(s.Scale-1) != 0 {
		return s, fmt.Errorf("scale must be a power of two, got %d", s.Scale)
	}
	if s.TimeoutMS < 0 {
		return s, fmt.Errorf("timeout_ms must be non-negative, got %d", s.TimeoutMS)
	}
	if s.Ratio < 0 {
		return s, fmt.Errorf("ratio must be non-negative, got %d", s.Ratio)
	}
	if len(s.CacheLevels) > 0 {
		// Reject malformed hierarchies at submission, not inside a
		// worker: overlay the stack on an otherwise-valid config so
		// Validate's findings can only concern the cache levels.
		cfg := config.Default(s.Scale)
		cfg.CacheLevels = s.CacheLevels
		if err := cfg.Validate(); err != nil {
			return s, fmt.Errorf("cache_levels: %w", err)
		}
	}
	if len(s.MemoryTiers) > 0 {
		cfg := config.Default(s.Scale)
		cfg.MemoryTiers = config.CloneTiers(s.MemoryTiers)
		if err := cfg.Validate(); err != nil {
			return s, fmt.Errorf("memory_tiers: %w", err)
		}
	}
	switch s.Kind {
	case KindSim:
		c, err := s.Cell().Normalize()
		if err != nil {
			return s, err
		}
		s.Workload, s.TracePath, s.TraceSHA256 = c.Workload, c.TracePath, c.TraceSHA256
		s.Ratio, s.BaselineGB, s.TimelineEpochCycles = c.Ratio, c.BaselineGB, c.TimelineEpochCycles
		s.Workloads, s.Policies, s.Parallelism, s.DSE = nil, nil, 0, nil
		return s, nil
	case KindMatrix:
		s.Workloads = d.Workloads
		for _, w := range s.Workloads {
			if _, err := workload.ByName(w); err != nil {
				return s, err
			}
		}
		for _, p := range s.Policies {
			if _, err := policy.Lookup(p); err != nil {
				return s, err
			}
		}
		s.DSE = nil
	case KindDSE:
		if s.DSE == nil {
			return s, fmt.Errorf("dse job requires a dse sweep spec (see README \"Asking design questions\")")
		}
		// The shared scale, seed, hierarchy and tier stack seed the
		// matching sweep axes, then reset to their defaults: the sweep's
		// axes are the only canonical spelling, so {scale: 512} and
		// {dse: {scales: [512]}} hash equal.
		d, err := experiments.Options{Scale: s.Scale, Seed: s.Seed,
			CacheLevels: s.CacheLevels, MemoryTiers: s.MemoryTiers}.Sweep(*s.DSE)
		if err != nil {
			return s, err
		}
		cells, err := d.Expand()
		if err != nil {
			return s, err
		}
		if len(cells) > maxDSECells {
			return s, fmt.Errorf("dse sweep expands to %d cells, above the per-job cap of %d (split the sweep)", len(cells), maxDSECells)
		}
		s.DSE = &d
		s.Scale, s.Seed = 256, 42
		s.Workloads, s.Policies, s.CacheLevels, s.MemoryTiers = nil, nil, nil, nil
	default:
		return s, fmt.Errorf("unknown job kind %q (sim, matrix or dse)", s.Kind)
	}
	// Matrix and sweep jobs. Parallelism shapes scheduling, not results;
	// it is kept in the spec (a caller may bound a job's CPU use) but
	// clamped. The single-simulation fields do not apply.
	s.Parallelism = max(s.Parallelism, 0)
	s.Policy, s.Workload, s.BaselineGB, s.Ratio, s.TimelineEpochCycles = "", "", 0, 0, 0
	s.TracePath, s.TraceSHA256 = "", ""
	return s, nil
}

// Hash returns the canonical content address of the spec. A sim
// spec's hash is its cell's (experiments.Cell.Hash), so a sim job, a
// sweep cell and a matrix cell that describe one simulation share one
// cache entry. Other kinds hash the normalized spec minus
// scheduling-only fields. Two jobs with equal hashes are guaranteed to
// produce identical results (the simulator is deterministic in its
// options and seed).
func (s JobSpec) Hash() string {
	if s.Kind == KindSim {
		return s.Cell().Hash()
	}
	s.TimeoutMS = 0
	s.Parallelism = 0
	b, err := json.Marshal(s) // struct marshal: fixed field order, canonical
	if err != nil {
		// JobSpec contains only plain data; Marshal cannot fail.
		panic(fmt.Sprintf("server: marshal spec: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Cell is the simulation a sim spec describes.
func (s JobSpec) Cell() experiments.Cell {
	return experiments.Cell{
		Policy:              sim.PolicyKind(s.Policy),
		Workload:            s.Workload,
		TracePath:           s.TracePath,
		TraceSHA256:         s.TraceSHA256,
		Scale:               s.Scale,
		Ratio:               s.Ratio,
		BaselineGB:          s.BaselineGB,
		Seed:                s.Seed,
		Instructions:        s.Instructions,
		Warmup:              s.Warmup,
		TimelineEpochCycles: s.TimelineEpochCycles,
		CacheLevels:         s.CacheLevels,
		MemoryTiers:         s.MemoryTiers,
	}
}

// SimOptions is the simulator options of a normalized sim spec: its
// cell's Options. cmd/chameleon-bench builds its reference runs with it.
func (s JobSpec) SimOptions() (sim.Options, error) { return s.Cell().Options() }

// Timeout returns the job's wall-clock budget, clamped to fallback
// when unset.
func (s JobSpec) Timeout(fallback time.Duration) time.Duration {
	if s.TimeoutMS <= 0 {
		return fallback
	}
	return time.Duration(s.TimeoutMS) * time.Millisecond
}
