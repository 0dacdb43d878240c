package memtrace_test

import (
	"bytes"
	"reflect"
	"testing"

	"chameleon/internal/config"
	"chameleon/internal/memtrace"
	"chameleon/internal/policy"
	"chameleon/internal/sim"
	"chameleon/internal/trace"
	"chameleon/internal/workload"
)

// gateOpts builds the shared simulation options of the determinism
// gate: warm-up, timeline sampling and allocation churn all on, so the
// replay must reproduce mode switches, ISA notifications and page
// faults — not just the measured reference stream.
func gateOpts(t *testing.T, policyName string, scale uint64) sim.Options {
	t.Helper()
	prof, err := workload.ByName("cloverleaf")
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.Options{
		Config:                 config.Default(scale),
		Policy:                 sim.PolicyKind(policyName),
		Workload:               prof.Scale(scale),
		Seed:                   31,
		WarmupInstructions:     100_000,
		TimelineEpochCycles:    500_000,
		PhaseAllocBytes:        64 * config.KB,
		PhaseEveryInstructions: 40_000,
	}
	desc, err := policy.Lookup(policyName)
	if err != nil {
		t.Fatal(err)
	}
	for opts.Config.NumTiers() < desc.RequiredTiers() {
		opts.Config = opts.Config.WithNVMTier(32 * config.GB / scale)
	}
	if desc.RequiresBaseline {
		opts.BaselineBytes = 24 * config.GB / scale
	}
	return opts
}

// record runs the simulation described by opts with a CMTR writer
// attached and returns the result plus the recorded bytes.
func record(t *testing.T, opts sim.Options, instr uint64) (*sim.Result, []byte) {
	t.Helper()
	var rec bytes.Buffer
	w := memtrace.NewWriter(&rec)
	w.Meta = "gate"
	opts.TraceSink = w
	sys, err := sim.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(instr)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return res, rec.Bytes()
}

// replaySources parses a recording and returns replay options derived
// from base: the recorded per-core streams and run profile.
func replaySources(t *testing.T, base sim.Options, rec []byte) sim.Options {
	t.Helper()
	tr, err := memtrace.Parse(rec)
	if err != nil {
		t.Fatal(err)
	}
	srcs, err := tr.Sources()
	if err != nil {
		t.Fatal(err)
	}
	base.Workload = tr.RunProfile()
	base.Sources = srcs
	return base
}

// TestCaptureReplayDeterminism is the subsystem's headline gate: for
// EVERY registered policy, record a run, replay the recording under
// the same options, and require the replayed sim.Result to be
// DeepEqual to the original — same IPC, MPKI, per-level stats, device
// queues, OS fault counts and timeline. A second capture taken *during*
// the replay must also be byte-identical to the first, pinning the
// encoder's determinism end to end.
func TestCaptureReplayDeterminism(t *testing.T) {
	const scale = 512
	const instr = 50_000
	for _, name := range policy.Names() {
		t.Run(name, func(t *testing.T) {
			orig, rec := record(t, gateOpts(t, name, scale), instr)

			// Replay, re-capturing as we go.
			ropts := replaySources(t, gateOpts(t, name, scale), rec)
			replayed, rerec := record(t, ropts, instr)

			if !reflect.DeepEqual(orig, replayed) {
				t.Errorf("replay diverged from the recorded run:\noriginal: %+v\nreplayed: %+v", orig, replayed)
			}
			if !bytes.Equal(rec, rerec) {
				t.Error("re-capture during replay is not byte-identical to the original recording")
			}
		})
	}
}

// TestReplayHeaderCarriesRunIdentity: the recorded header preserves
// what a replayed Result needs — the run name and per-core workload
// names/footprints — including the "+"-joined mix naming.
func TestReplayHeaderCarriesRunIdentity(t *testing.T) {
	const scale = 512
	bwaves, err := workload.ByName("bwaves")
	if err != nil {
		t.Fatal(err)
	}
	leslie, err := workload.ByName("leslie3d")
	if err != nil {
		t.Fatal(err)
	}
	var rec bytes.Buffer
	w := memtrace.NewWriter(&rec)
	opts := sim.Options{
		Config:   config.Default(scale),
		Policy:   sim.PolicyChameleon,
		Workload: bwaves.Scale(scale),
		Mix:      []trace.Profile{bwaves.Scale(scale), leslie.Scale(scale)},
		Seed:     3,
	}
	opts.TraceSink = w
	sys, err := sim.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := sys.Run(5_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	tr, err := memtrace.Parse(rec.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Header().RunName != "bwaves+leslie3d" {
		t.Errorf("recorded run name = %q, want the joined mix", tr.Header().RunName)
	}
	srcs, err := tr.Sources()
	if err != nil {
		t.Fatal(err)
	}
	ropts := sim.Options{
		Config:   config.Default(scale),
		Policy:   sim.PolicyChameleon,
		Workload: tr.RunProfile(),
		Sources:  srcs,
		Seed:     3,
	}
	rsys, err := sim.New(ropts)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := rsys.Run(5_000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, replayed) {
		t.Errorf("mix replay diverged:\noriginal: %+v\nreplayed: %+v", orig, replayed)
	}
}
