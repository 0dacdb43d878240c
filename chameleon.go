// Package chameleon is a simulation library reproducing "CHAMELEON: A
// Dynamically Reconfigurable Heterogeneous Memory System" (Kotra et
// al., MICRO 2018).
//
// It models a single-socket heterogeneous memory system — a
// high-bandwidth stacked DRAM next to a larger off-chip DRAM — and the
// full space of management designs the paper evaluates:
//
//   - flat DDR baselines and OS-managed NUMA placement (first-touch,
//     AutoNUMA migration),
//   - a latency-optimised DRAM cache (Alloy),
//   - hardware-managed Part-of-Memory (PoM) with segment-restricted
//     remapping and competing-counter swaps,
//   - Polymorphic Memory, and
//   - the paper's contributions: Chameleon and Chameleon-Opt, which use
//     ISA-Alloc/ISA-Free notifications from the OS to switch segment
//     groups dynamically between PoM mode and cache mode.
//
// # Quick start
//
//	cfg := chameleon.DefaultConfig(256) // Table I, scaled down 256x
//	prof, _ := chameleon.Workload("bwaves")
//	sys, _ := chameleon.New(chameleon.Options{
//		Config:   cfg,
//		Policy:   chameleon.PolicyChameleonOpt,
//		Workload: prof.Scale(256),
//		Seed:     1,
//	})
//	res, _ := sys.Run(1_000_000)
//	fmt.Printf("IPC %.3f, stacked hit rate %.1f%%\n",
//		res.GeoMeanIPC, res.StackedHitRate*100)
//
// The experiment drivers in this package regenerate every table and
// figure of the paper's evaluation; see EXPERIMENTS.md for the
// paper-vs-measured record.
package chameleon

import (
	"context"
	"io"

	"chameleon/internal/config"
	"chameleon/internal/dram"
	"chameleon/internal/dse"
	"chameleon/internal/experiments"
	"chameleon/internal/memtrace"
	"chameleon/internal/osmodel"
	"chameleon/internal/policy"
	"chameleon/internal/server"
	"chameleon/internal/sim"
	"chameleon/internal/trace"
	"chameleon/internal/workload"
)

// Config is the simulated machine configuration (Table I).
type Config = config.Config

// CacheLevelConfig describes one level of the cache hierarchy; order
// Config.CacheLevels from the core outward to shape the stack the
// simulator builds (any depth, private or shared per level).
type CacheLevelConfig = config.CacheLevelConfig

// MemTierConfig describes one tier of the memory stack; order
// Config.MemoryTiers from the nearest (fastest) tier outward. Each
// tier is a DRAM, NVM or CXL device with an optional power profile.
type MemTierConfig = config.MemTierConfig

// NVMConfig describes a byte-addressable non-volatile memory device
// with asymmetric read/write latency and write-endurance accounting.
type NVMConfig = config.NVMConfig

// CXLConfig describes a CXL-attached far-memory device behind a
// serial link with its own latency and bandwidth.
type CXLConfig = config.CXLConfig

// PowerConfig is a memory device's energy profile.
type PowerConfig = config.PowerConfig

// Memory-tier kinds for MemTierConfig.Kind.
const (
	TierDRAM = config.TierDRAM
	TierNVM  = config.TierNVM
	TierCXL  = config.TierCXL
)

// DefaultNVM returns a representative NVM device config (Optane-class
// latencies and endurance) of the given capacity.
func DefaultNVM(capacityBytes uint64) NVMConfig { return config.DefaultNVM(capacityBytes) }

// DefaultCXL returns a representative CXL memory expander config of
// the given capacity.
func DefaultCXL(capacityBytes uint64) CXLConfig { return config.DefaultCXL(capacityBytes) }

// DefaultConfig returns the paper's Table I configuration with
// capacities (and outer cache-level sizes) divided by scale. Scale 1 is
// the full-size 4 GB + 20 GB machine.
func DefaultConfig(scale uint64) Config { return config.Default(scale) }

// Byte-size helpers re-exported for configuration arithmetic.
const (
	KB = config.KB
	MB = config.MB
	GB = config.GB
)

// Policy selects a memory-system design.
type Policy = sim.PolicyKind

// The designs of the paper's evaluation.
const (
	// PolicyFlat is a DDR-only baseline (set Options.BaselineBytes).
	PolicyFlat = sim.PolicyFlat
	// PolicyNUMAFlat exposes both memories to the OS with no hardware
	// remapping (first-touch placement; add AutoNUMA for migration).
	PolicyNUMAFlat = sim.PolicyNUMAFlat
	// PolicyAlloy is the latency-optimised direct-mapped DRAM cache.
	PolicyAlloy = sim.PolicyAlloy
	// PolicyPoM is the hardware-managed Part-of-Memory baseline.
	PolicyPoM = sim.PolicyPoM
	// PolicyCAMEO is the 64 B congruence-group PoM variant.
	PolicyCAMEO = sim.PolicyCAMEO
	// PolicyPolymorphic is the Chung et al. comparison point.
	PolicyPolymorphic = sim.PolicyPolymorphic
	// PolicyChameleon is the paper's basic co-design.
	PolicyChameleon = sim.PolicyChameleon
	// PolicyChameleonOpt adds proactive segment remapping.
	PolicyChameleonOpt = sim.PolicyChameleonOpt
)

// Policies lists every registered memory-system design name, sorted.
// Any of them is a valid Options.Policy; designs registered by client
// code (policy.Register) appear here too.
func Policies() []string { return policy.Names() }

// PolicyNeedsBaseline reports whether the named design is a flat DDR
// baseline that requires Options.BaselineBytes. Unknown names return
// false; New reports the authoritative error.
func PolicyNeedsBaseline(name string) bool {
	d, err := policy.Lookup(name)
	return err == nil && d.RequiresBaseline
}

// PolicyRequiredTiers returns the minimum number of memory tiers the
// named design drives (2 for the paper's fast/slow pair; tiering
// policies such as "hwc" need 3). Unknown names return 2.
func PolicyRequiredTiers(name string) int {
	d, err := policy.Lookup(name)
	if err != nil {
		return 2
	}
	return d.RequiredTiers()
}

// Options configure one simulation run.
type Options = sim.Options

// System is a constructed simulation.
type System = sim.System

// Result is the outcome of a run.
type Result = sim.Result

// CoreResult is one core's share of a Result.
type CoreResult = sim.CoreResult

// LevelResult is one cache level's aggregated statistics in a Result
// (Result.Levels, ordered from the core outward).
type LevelResult = sim.LevelResult

// TierResult is one memory tier's aggregated statistics in a Result
// (Result.Tiers, ordered nearest first).
type TierResult = sim.TierResult

// TimelinePoint is one sample of the optional run timeline (set
// Options.TimelineEpochCycles).
type TimelinePoint = sim.TimelinePoint

// EnergyReport breaks a DRAM device's energy into components.
type EnergyReport = dram.EnergyReport

// New builds a simulation.
func New(opts Options) (*System, error) { return sim.New(opts) }

// Profile is a synthetic application profile.
type Profile = trace.Profile

// Workload returns one of the Table II application profiles by name
// (at full, unscaled footprint — call Scale to match a scaled Config).
func Workload(name string) (Profile, error) { return workload.ByName(name) }

// Ref is one synthetic memory reference.
type Ref = trace.Ref

// TraceStream generates a reproducible reference stream for a profile.
type TraceStream = trace.Stream

// NewTraceStream builds a reference-stream generator; distinct seeds
// give independent rate-mode copies.
func NewTraceStream(p Profile, seed uint64) (*TraceStream, error) {
	return trace.NewStream(p, seed)
}

// Workloads lists the Table II profile names.
func Workloads() []string { return workload.Names() }

// Binary trace capture & replay (internal/memtrace). Any run is
// recordable by attaching a TraceWriter to Options.TraceSink; the
// resulting file replays as a first-class workload via UseWorkload
// ("replay:<file>.ctrace") and reproduces the recorded run bit for bit
// under the same options. See cmd/chameleon-trace for the tooling.
type (
	// TraceWriter streams references into the versioned binary trace
	// format; it implements the Options.TraceSink interface.
	TraceWriter = memtrace.Writer
	// RecordedTrace is a loaded, fully validated trace recording.
	RecordedTrace = memtrace.Trace
	// TraceHeader is a recording's decoded header.
	TraceHeader = memtrace.Header
	// TraceSummary aggregates a recording (refs, writes, footprint).
	TraceSummary = memtrace.Summary
	// RefSource is a per-core reference stream (synthetic generator or
	// trace replay) consumed by the simulator.
	RefSource = trace.Source
	// RefSink observes per-core references as a run consumes them.
	RefSink = trace.Sink
)

// NewTraceWriter wraps w in a binary trace encoder. Attach it to
// Options.TraceSink, run the simulation, then Close it.
func NewTraceWriter(w io.Writer) *TraceWriter { return memtrace.NewWriter(w) }

// LoadTrace reads and fully validates a recorded trace file.
func LoadTrace(path string) (*RecordedTrace, error) { return memtrace.LoadFile(path) }

// ParseTrace validates an in-memory recording.
func ParseTrace(data []byte) (*RecordedTrace, error) { return memtrace.Parse(data) }

// TraceStat summarises a recording in one validating pass.
func TraceStat(r io.Reader) (TraceSummary, error) { return memtrace.Stat(r) }

// UseWorkload resolves a workload name into opts: a Table II profile
// name attaches the synthetic profile scaled by scale, and a
// "replay:<file>.ctrace" name loads the recording and attaches its
// per-core replay sources (replay footprints are already concrete, so
// scale does not apply). Unknown names report the full catalogue.
func UseWorkload(opts *Options, name string, scale uint64) error {
	r, err := workload.Resolve(name)
	if err != nil {
		return err
	}
	if r.Trace != nil {
		srcs, err := r.Trace.Sources()
		if err != nil {
			return err
		}
		opts.Sources = srcs
		opts.Workload = r.Profile
		return nil
	}
	opts.Workload = r.Profile.Scale(scale)
	return nil
}

// AllocPolicy selects the OS frame-allocation order.
type AllocPolicy = osmodel.AllocPolicy

// OS frame-allocation policies.
const (
	AllocShuffled   = osmodel.AllocShuffled
	AllocFirstTouch = osmodel.AllocFirstTouch
	AllocSequential = osmodel.AllocSequential
	AllocInterleave = osmodel.AllocInterleave
	AllocSlowFirst  = osmodel.AllocSlowFirst
	// AllocGroupAware implements the paper's §VI-G proposal: the OS
	// places pages to maximise segment groups that keep a free segment.
	AllocGroupAware = osmodel.AllocGroupAware
)

// AutoNUMAConfig parameterises the Linux AutoNUMA model.
type AutoNUMAConfig = osmodel.AutoNUMAConfig

// ExperimentOptions scale and bound the per-figure experiment drivers.
type ExperimentOptions = experiments.Options

// Matrix is one simulation result per (policy, workload) pair, shared
// by the main evaluation figures.
type Matrix = experiments.Matrix

// RunMatrix executes every evaluation policy on every selected
// workload.
func RunMatrix(o ExperimentOptions) (*Matrix, error) { return experiments.RunMatrix(o) }

// RunMatrixContext is RunMatrix with cancellation: the context is
// threaded into every cell's simulation.
func RunMatrixContext(ctx context.Context, o ExperimentOptions) (*Matrix, error) {
	return experiments.RunMatrixContext(ctx, o)
}

// Design-space exploration (internal/dse, cmd/chameleon-dse). A
// DSESpec declares a sweep over the simulator's pluggable axes;
// RunDSE evaluates its cross product through the experiments runner,
// bounded by ExperimentOptions.Parallelism, with optional dominance
// pruning, and extracts the Pareto front over the configured
// objectives.
type (
	// DSESpec is a declarative design-space sweep.
	DSESpec = dse.Spec
	// DSEObjective names one optimisation axis (snapshot key + sense).
	DSEObjective = dse.Objective
	// DSECell is one expanded configuration of a sweep.
	DSECell = dse.Cell
	// DSEPoint is one evaluated cell with its objective vector and
	// provenance.
	DSEPoint = dse.Point
	// DSEResult is a sweep's outcome: Pareto front, evaluated points,
	// and cell accounting.
	DSEResult = dse.Result
)

// Objective senses and derived objective keys for DSESpec.Objectives.
const (
	DSESenseMax         = dse.SenseMax
	DSESenseMin         = dse.SenseMin
	DSETotalCapacityKey = dse.KeyTotalCapacity
	DSETotalEnergyKey   = dse.KeyTotalEnergy
)

// DefaultDSEObjectives is the paper-shaped front: IPC up, provisioned
// capacity down, memory energy down.
func DefaultDSEObjectives() []DSEObjective { return dse.DefaultObjectives() }

// RunDSE executes a design-space sweep in-process and returns its
// Pareto front. ExperimentOptions seed any sweep axis the spec leaves
// empty; submit a KindDSE JobSpec to a Server instead to key every
// cell into the content-addressed result cache.
func RunDSE(ctx context.Context, o ExperimentOptions, spec DSESpec) (*DSEResult, error) {
	return experiments.RunDSE(ctx, o, spec)
}

// Simulation-as-a-service (cmd/chamd). Server hosts the simulator
// behind an HTTP JSON API with a bounded worker pool, per-job
// deadlines, a content-addressed result cache and expvar metrics;
// Client talks to one.
type (
	// Server is the embeddable simulation service.
	Server = server.Server
	// ServerOptions sizes a Server's pool, queue, cache and default
	// job deadline.
	ServerOptions = server.Options
	// JobSpec is the wire-format description of one job.
	JobSpec = server.JobSpec
	// JobStatus is a job's status snapshot (state, progress, timings).
	JobStatus = server.JobStatus
	// JobState is a job's lifecycle state ("queued" ... "done").
	JobState = server.JobState
	// Job is a submitted unit of work owned by a Server.
	Job = server.Job
	// Client is a Go client for a chamd server.
	Client = server.Client
)

// Job lifecycle states. Remote occurs only on clustered servers: the
// job runs on a peer (its ring owner, or an idle node it was handed
// to) and is mirrored locally.
const (
	JobQueued   = server.StateQueued
	JobRunning  = server.StateRunning
	JobRemote   = server.StateRemote
	JobDone     = server.StateDone
	JobFailed   = server.StateFailed
	JobCanceled = server.StateCanceled
)

// Job kinds for JobSpec.Kind.
const (
	JobKindSim    = server.KindSim
	JobKindMatrix = server.KindMatrix
	JobKindDSE    = server.KindDSE
)

// NewServer builds and starts an embeddable simulation service; serve
// its Handler() over HTTP, or submit jobs in-process with Submit.
func NewServer(o ServerOptions) *Server { return server.New(o) }

// NewClient targets a running chamd server's base URL.
func NewClient(baseURL string) *Client { return server.NewClient(baseURL) }
