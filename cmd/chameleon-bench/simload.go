package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"chameleon/internal/config"
	"chameleon/internal/server"
	"chameleon/internal/sim"
	"chameleon/internal/workload"
)

// scale is the capacity-scale divisor of every benchmark simulation,
// the repository's standard reproduction scale.
const scale = 256

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

// cores is the default machine's core count; every benchmark simulation
// runs one copy of its workload per core.
const cores = 12

// simThreads is the thread count of every timed simulation: chamd's
// default, and the engine the library recommends.
const simThreads = 2

// simSpec is one closed-loop simulator workload: chameleon-opt on 12
// cores running copies of one Table II profile, New+Run per iteration.
type simSpec struct {
	profile       string
	warmup, instr uint64 // per core
	// churnEvery, when non-zero, sets the footprint to 70% of the memory
	// stack and makes every core allocate and free a capacity/48 buffer
	// every churnEvery instructions (sim.Options.PhaseAllocBytes), with a
	// 1M-cycle timeline.
	churnEvery uint64
}

var (
	// missHeavy: LLC-MPKI about 60, so policy, memtier and the parallel
	// engine's park/commit dominate.
	missHeavy = simSpec{profile: "mcf", warmup: 250_000, instr: 100_000}
	// resident: L1 miss rate 0.2%, so trace generation, translation and
	// L1 dominate and a policy change should not move it.
	resident = simSpec{profile: "miniGhost", warmup: 2_000_000, instr: 500_000}
	// churn: the paper's mechanism, ISA-Alloc/Free driving mode switches;
	// it runs on the sequential engine (alloc-phases fallback), so a
	// parallel-engine change should not move it.
	churn = simSpec{profile: "hpccg", warmup: 1_000_000, instr: 250_000, churnEvery: 150_000}
)

// shrunk divides the spec's instruction counts by div.
func (s simSpec) shrunk(div uint64) simSpec {
	s.warmup, s.instr, s.churnEvery = s.warmup/div, s.instr/div, s.churnEvery/div
	return s
}

// options builds one run's simulator options.
func (s simSpec) options(seed uint64, threads int) (sim.Options, error) {
	prof, err := workload.ByName(s.profile)
	if err != nil {
		return sim.Options{}, err
	}
	cfg := config.Default(scale)
	o := sim.Options{
		Config:             cfg,
		Policy:             sim.PolicyChameleonOpt,
		Workload:           prof.Scale(scale),
		Seed:               seed,
		Threads:            threads,
		WarmupInstructions: s.warmup,
	}
	if s.churnEvery > 0 {
		capacity := cfg.TierCapacity(0) + cfg.TierCapacity(1)
		o.Workload.FootprintBytes = capacity * 7 / 10 / workload.Copies
		o.PhaseAllocBytes = capacity / 48
		o.PhaseEveryInstructions = s.churnEvery
		o.TimelineEpochCycles = 1_000_000
	}
	return o, nil
}

// jobSpec is the chamd job closest to the workload, without its seed; a
// job cannot express allocation churn, so churn's job runs plain hpccg.
func (s simSpec) jobSpec() server.JobSpec {
	return server.JobSpec{Policy: string(sim.PolicyChameleonOpt), Workload: s.profile, Scale: scale,
		Instructions: s.instr, Warmup: s.warmup}
}

// simInstructions is the instruction count one run simulates over every
// core, warm-up included.
func simInstructions(o sim.Options, instr uint64) float64 {
	return float64((o.WarmupInstructions + instr) * cores)
}

// run is the workload's closed loop: set up (the threads=1 reference
// runs), then New+Run at simThreads until the time is up, checking each
// run's digest against the reference.
func (s simSpec) run(cfg runConfig, r *report) error {
	s = s.shrunk(cfg.shrink)
	seqOpts, err := s.options(cfg.seed, 1)
	if err != nil {
		return err
	}
	ref, setup, seqRun, err := reference(seqOpts, s.instr)
	if err != nil {
		return err
	}
	r.note("result_digest", "%s", ref)
	o, err := s.options(cfg.seed, simThreads)
	if err != nil {
		return err
	}
	if cfg.trace {
		if err := layerSplit(o, s.instr, ref, seqRun, cfg.minRuns, cfg.seconds*3/4, r); err != nil {
			return err
		}
		return serviceProbe(s.jobSpec(), cfg.seed, r)
	}
	host := newHostClock()
	var runs []float64
	start := time.Now()
	for n := 0; n < cfg.minRuns || time.Since(start).Seconds() < cfg.seconds; n++ {
		f := host.sample()
		res, build, run, err := timedRun(o, s.instr)
		if err == nil {
			err = checkDigest(res, ref)
		}
		r.op(err)
		if err == nil {
			runs = append(runs, (build+run).Seconds()/f)
		}
	}
	if len(runs) == 0 {
		return fmt.Errorf("no simulation succeeded")
	}
	h := host.factor()
	r.note("host_factor", "%.6g (median; each run's time is divided by the sample before it)", h)
	r.add("setup_s", median(setup)/h, "s", len(setup))
	p50 := quantile(runs, 0.5)
	r.add("latency_ms_p50", p50*1e3, "ms", len(runs))
	r.add("latency_ms_p80", quantile(runs, 0.8)*1e3, "ms", len(runs))
	// The headline simulator speed is the same sample as latency_ms_p50:
	// every run simulates the same instructions.
	r.note("sim_minstr_per_s", "%.6g (instructions of one run, warm-up included, / latency_ms_p50)",
		simInstructions(o, s.instr)/p50/1e6)
	return nil
}

// reference runs the set-up: setupRepeats sequential runs of o, which
// must agree on their digest. It returns the digest, each set-up's wall
// time and each run's New+Run time, in seconds.
func reference(o sim.Options, instr uint64) (digest string, setup, runs []float64, err error) {
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		res, build, run, err := timedRun(o, instr)
		if err != nil {
			return "", nil, nil, fmt.Errorf("reference run: %w", err)
		}
		d := resultDigest(res)
		if i > 0 && d != digest {
			return "", nil, nil, fmt.Errorf("reference run %d digest %.12s differs from %.12s", i, d, digest)
		}
		digest = d
		setup = append(setup, time.Since(start).Seconds())
		runs = append(runs, (build + run).Seconds())
	}
	return digest, setup, runs, nil
}

// timedRun collects garbage, then builds and runs one simulation,
// timing sim.New and Run apart.
func timedRun(o sim.Options, instr uint64) (res *sim.Result, build, run time.Duration, err error) {
	sys, build, err := timedNew(o)
	if err != nil {
		return nil, 0, 0, err
	}
	start := time.Now()
	res, err = sys.Run(instr)
	return res, build, time.Since(start), err
}

// timedNew collects garbage left by earlier runs, so that no run pays
// for another's, then times sim.New.
func timedNew(o sim.Options) (*sim.System, time.Duration, error) {
	runtime.GC()
	start := time.Now()
	sys, err := sim.New(o)
	return sys, time.Since(start), err
}

// provenanceKeys are the JSON keys of a result's engine provenance,
// which differs between thread counts while every simulated counter is
// identical. They are named by key, not by field, so that the benchmark
// builds against versions of the simulator with or without them.
var provenanceKeys = []string{"Engine", "FallbackReason"}

// resultFields decodes a result's JSON into its top-level fields.
func resultFields(res *sim.Result) map[string]json.RawMessage {
	b, err := json.Marshal(res)
	if err == nil {
		var fields map[string]json.RawMessage
		if err = json.Unmarshal(b, &fields); err == nil {
			return fields
		}
	}
	// A Result is plain data; it always round-trips.
	panic(fmt.Sprintf("result JSON: %v", err))
}

// resultDigest is the SHA-256 of a result's canonical JSON (fields in
// key order), without the engine provenance.
func resultDigest(res *sim.Result) string {
	fields := resultFields(res)
	for _, k := range provenanceKeys {
		delete(fields, k)
	}
	b, err := json.Marshal(fields)
	if err != nil {
		panic(fmt.Sprintf("result JSON: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// fellBack reports whether a run asked for threads but ran on the
// sequential engine.
func fellBack(res *sim.Result) bool {
	reason, ok := resultFields(res)["FallbackReason"]
	return ok && string(reason) != `""`
}

// checkDigest reports a result whose digest is not want.
func checkDigest(res *sim.Result, want string) error {
	if got := resultDigest(res); got != want {
		return fmt.Errorf("result digest %.12s, want the threads=1 reference %.12s", got, want)
	}
	return nil
}
