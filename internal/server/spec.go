package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"chameleon/internal/config"
	"chameleon/internal/dse"
	"chameleon/internal/experiments"
	"chameleon/internal/memtrace"
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
	if s.Scale == 0 {
		s.Scale = 256
	}
	if s.Scale&(s.Scale-1) != 0 {
		return s, fmt.Errorf("scale must be a power of two, got %d", s.Scale)
	}
	if s.Instructions == 0 {
		s.Instructions = 500_000
	}
	if s.Warmup == 0 {
		s.Warmup = 4_000_000
	}
	if s.Seed == 0 {
		s.Seed = 42
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
		if s.Policy == "" {
			return s, fmt.Errorf("sim job requires a policy (one of %s)", policyNames())
		}
		desc, err := policy.Lookup(s.Policy)
		if err != nil {
			return s, fmt.Errorf("unknown policy %q (one of %s)", s.Policy, policyNames())
		}
		if tiers := max(len(s.MemoryTiers), 2); desc.RequiredTiers() > tiers {
			return s, fmt.Errorf("policy %q needs %d memory tiers, spec has %d",
				s.Policy, desc.RequiredTiers(), tiers)
		}
		// The hierarchy and the stack passed above, so a machine that
		// fails here is one the scale or the ratio starved of a tier:
		// reject it now rather than inside a worker.
		cfg, err := s.machine()
		if err == nil {
			err = cfg.Validate()
		}
		if err != nil {
			return s, fmt.Errorf("scale %d, ratio %d: %w", s.Scale, s.Ratio, err)
		}
		if path, ok := strings.CutPrefix(s.Workload, workload.ReplayPrefix); ok {
			// Both spellings of a replay normalize identically, so they
			// share one cache entry.
			if s.TracePath != "" && s.TracePath != path {
				return s, fmt.Errorf("workload %q and trace_path %q name different traces", s.Workload, s.TracePath)
			}
			s.TracePath, s.Workload = path, ""
		}
		switch {
		case s.TracePath != "":
			if s.Workload != "" {
				return s, fmt.Errorf("workload and trace_path are mutually exclusive")
			}
			tr, err := memtrace.LoadFile(s.TracePath)
			if err != nil {
				return s, fmt.Errorf("trace_path: %w", err)
			}
			s.TraceSHA256 = tr.SHA256()
		case s.Workload == "":
			return s, fmt.Errorf("sim job requires a workload (see GET /v1/workloads) or a trace_path")
		default:
			if _, err := workload.ByName(s.Workload); err != nil {
				return s, err
			}
			s.TraceSHA256 = ""
		}
		if desc.RequiresBaseline {
			if s.BaselineGB == 0 {
				s.BaselineGB = 24
			}
		} else {
			s.BaselineGB = 0
		}
		if s.TimelineEpochCycles == 0 {
			s.TimelineEpochCycles = 1_000_000
		}
		s.Workloads = nil
		s.Policies = nil
		s.Parallelism = 0
		s.DSE = nil
	case KindMatrix:
		if len(s.Workloads) == 0 {
			s.Workloads = workload.Names()
		}
		for _, w := range s.Workloads {
			if _, err := workload.ByName(w); err != nil {
				return s, err
			}
		}
		for _, p := range s.Policies {
			if _, err := policy.Lookup(p); err != nil {
				return s, fmt.Errorf("unknown policy %q (one of %s)", p, policyNames())
			}
		}
		// Parallelism shapes scheduling, not results; it is kept in
		// the spec (a caller may bound a job's CPU use) but clamped.
		if s.Parallelism < 0 {
			s.Parallelism = 0
		}
		s.Policy, s.Workload, s.BaselineGB, s.Ratio, s.TimelineEpochCycles = "", "", 0, 0, 0
		s.TracePath, s.TraceSHA256 = "", ""
		s.DSE = nil
	case KindDSE:
		if s.DSE == nil {
			return s, fmt.Errorf("dse job requires a dse sweep spec (see README \"Asking design questions\")")
		}
		// A top-level Scale/Seed seeds the matching sweep axis, then both
		// reset to their defaults: the sweep's axes are the only canonical
		// spelling, so {scale: 512} and {dse: {scales: [512]}} hash equal.
		d := *s.DSE
		if len(d.Scales) == 0 {
			d.Scales = []uint64{s.Scale}
		}
		if len(d.Seeds) == 0 {
			d.Seeds = []uint64{s.Seed}
		}
		// Likewise a top-level hierarchy or tier stack becomes a
		// single-variant axis.
		if len(d.CacheLevelVariants) == 0 && len(s.CacheLevels) > 0 {
			d.CacheLevelVariants = [][]config.CacheLevelConfig{s.CacheLevels}
		}
		if len(d.MemoryTierVariants) == 0 && len(s.MemoryTiers) > 0 {
			d.MemoryTierVariants = [][]config.MemTierConfig{config.CloneTiers(s.MemoryTiers)}
		}
		d, err := d.Normalize()
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
		if s.Parallelism < 0 {
			s.Parallelism = 0
		}
		s.Policy, s.Workload, s.BaselineGB, s.Ratio, s.TimelineEpochCycles = "", "", 0, 0, 0
		s.TracePath, s.TraceSHA256 = "", ""
		s.Workloads, s.Policies = nil, nil
		s.CacheLevels, s.MemoryTiers = nil, nil
	default:
		return s, fmt.Errorf("unknown job kind %q (sim, matrix or dse)", s.Kind)
	}
	return s, nil
}

// Hash returns the canonical content address of the spec: a SHA-256
// over the normalized spec minus scheduling-only fields. Two jobs with
// equal hashes are guaranteed to produce identical results (the
// simulator is deterministic in its options and seed).
func (s JobSpec) Hash() string {
	s.TimeoutMS = 0
	s.Parallelism = 0
	// A replay job is identified by the trace's content (TraceSHA256),
	// not its filename: moving a recording keeps the cache warm.
	s.TracePath = ""
	b, err := json.Marshal(s) // struct marshal: fixed field order, canonical
	if err != nil {
		// JobSpec contains only plain data; Marshal cannot fail.
		panic(fmt.Sprintf("server: marshal spec: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// machine builds the simulated machine of a sim spec: the scaled
// default with the spec's hierarchy and memory stack overlaid and its
// ratio applied.
func (s JobSpec) machine() (config.Config, error) {
	cfg := config.Default(s.Scale)
	if len(s.CacheLevels) > 0 {
		cfg.CacheLevels = s.CacheLevels
	}
	if len(s.MemoryTiers) > 0 {
		cfg.MemoryTiers = config.CloneTiers(s.MemoryTiers)
	}
	if s.Ratio > 0 {
		return cfg.WithRatio(s.Ratio)
	}
	return cfg, nil
}

// SimOptions converts a normalized sim spec into simulator options.
func (s JobSpec) SimOptions() (sim.Options, error) {
	cfg, err := s.machine()
	if err != nil {
		return sim.Options{}, err
	}
	o := sim.Options{
		Config:              cfg,
		Policy:              sim.PolicyKind(s.Policy),
		Seed:                s.Seed,
		WarmupInstructions:  s.Warmup,
		TimelineEpochCycles: s.TimelineEpochCycles,
	}
	if s.TracePath != "" {
		tr, err := memtrace.LoadFile(s.TracePath)
		if err != nil {
			return sim.Options{}, fmt.Errorf("trace_path: %w", err)
		}
		// The cache entry is keyed on the content seen at submission; a
		// file that changed in between must not run under the old key.
		if got := tr.SHA256(); got != s.TraceSHA256 {
			return sim.Options{}, fmt.Errorf("trace_path: %s changed since submission (content hash %.12s, submitted %.12s)",
				s.TracePath, got, s.TraceSHA256)
		}
		srcs, err := tr.Sources()
		if err != nil {
			return sim.Options{}, err
		}
		// Replay footprints are already concrete; Scale does not apply.
		o.Workload = tr.RunProfile()
		o.Sources = srcs
	} else {
		prof, err := workload.ByName(s.Workload)
		if err != nil {
			return sim.Options{}, err
		}
		o.Workload = prof.Scale(s.Scale)
	}
	if s.BaselineGB > 0 {
		o.BaselineBytes = s.BaselineGB * config.GB / s.Scale
	}
	return o, nil
}

// MatrixOptions converts a normalized matrix spec into experiment
// options.
func (s JobSpec) MatrixOptions() experiments.Options {
	o := experiments.Options{
		Scale:        s.Scale,
		Instructions: s.Instructions,
		Warmup:       s.Warmup,
		Seed:         s.Seed,
		Workloads:    s.Workloads,
		Parallelism:  s.Parallelism,
		CacheLevels:  s.CacheLevels,
		MemoryTiers:  s.MemoryTiers,
	}
	for _, p := range s.Policies {
		o.Policies = append(o.Policies, sim.PolicyKind(p))
	}
	return o
}

// Timeout returns the job's wall-clock budget, clamped to fallback
// when unset.
func (s JobSpec) Timeout(fallback time.Duration) time.Duration {
	if s.TimeoutMS <= 0 {
		return fallback
	}
	return time.Duration(s.TimeoutMS) * time.Millisecond
}

// policyNames lists the accepted policy names for error messages.
func policyNames() string {
	return strings.Join(policy.Names(), ", ")
}
