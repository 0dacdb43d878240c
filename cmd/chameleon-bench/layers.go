package main

import (
	"fmt"
	"reflect"
	"time"

	"chameleon/internal/addr"
	"chameleon/internal/config"
	"chameleon/internal/hier"
	"chameleon/internal/osmodel"
	"chameleon/internal/policy"
	"chameleon/internal/sim"
	"chameleon/internal/trace"
)

// The traced run splits a simulation's time across its layers from
// outside, through their public APIs:
//
//   - policy and memtier are timed in the run itself: tracedPolicy is a
//     registered design that wraps chameleon-opt's controller and every
//     tier device handed to it, timing each call;
//   - trace, osmodel and hier are timed by batch replay of the run's
//     captured reference stream, one whole pass per layer, because a
//     clock read per call would swamp calls of about 20 ns.

// epoch anchors clock; time.Since reads only the monotonic clock.
var epoch = time.Now()

// clock returns monotonic nanoseconds.
func clock() int64 { return int64(time.Since(epoch)) }

// clockReadNs is what one timed empty interval measures: the cost the
// wrappers subtract from every call they time.
var clockReadNs = calibrateClock()

func calibrateClock() float64 {
	const n = 1 << 14
	costs := make([]float64, 9)
	for b := range costs {
		var sum int64
		for i := 0; i < n; i++ {
			t0 := clock()
			sum += clock() - t0
		}
		costs[b] = float64(sum) / n
	}
	return median(costs)
}

// tracedPolicy is chameleon-opt with every controller and device call
// timed. It produces the same results as chameleon-opt, which
// TestTracedRunMatchesUntraced and every traced run's digest check
// verify. recordingPolicy is the same design that also records every
// controller access, for checkReplay.
var (
	tracedPolicy    = registerTraced(sim.PolicyChameleonOpt, false)
	recordingPolicy = registerTraced(sim.PolicyChameleonOpt, true)
)

// memType is the type of a tier device as designs see it.
var memType = reflect.TypeFor[policy.Mem]()

// registerTraced registers the timed twin of a design under a name of
// its own and returns that name.
func registerTraced(name sim.PolicyKind, record bool) sim.PolicyKind {
	desc, err := policy.Lookup(string(name))
	if err != nil {
		panic(err) // the design ships with the policy package
	}
	build := desc.Build
	desc.Build = func(bc policy.BuildContext) (policy.Controller, error) {
		t := &layerTimes{record: record}
		tiers := make([]policy.TierMem, len(bc.Tiers))
		for i, tm := range bc.Tiers {
			tm.Mem = &tracedMem{Mem: tm.Mem, t: t}
			tiers[i] = tm
		}
		// Every other field that holds a tier device (the two-tier
		// designs' aliases of the first two) gets its wrapper too. They
		// are found by type, not by name, so that the benchmark builds
		// whichever aliases a version of the policy package has.
		v := reflect.ValueOf(&bc).Elem()
		for f := 0; f < v.NumField(); f++ {
			field := v.Field(f)
			if field.Type() != memType || field.IsNil() {
				continue
			}
			for i, tm := range bc.Tiers {
				if field.Interface() == tm.Mem {
					field.Set(reflect.ValueOf(tiers[i].Mem))
				}
			}
		}
		bc.Tiers = tiers
		c, err := build(bc)
		if err != nil {
			return nil, err
		}
		return &tracedController{Controller: c, t: t}, nil
	}
	prefix := "bench-traced-"
	if record {
		prefix = "bench-recording-"
	}
	traced := prefix + string(name)
	policy.Register(traced, desc)
	return sim.PolicyKind(traced)
}

// layerTimes accumulates one traced simulation's policy and memtier
// calls. The simulator calls its controller from one goroutine at a
// time, so the counters need no locking.
type layerTimes struct {
	// record makes the controller keep every access in calls, as
	// memAccess values, in the order it received them.
	record bool
	calls  []uint64

	accessCalls, isaCalls int64
	accessNs, isaNs       float64 // controller self time, devices excluded
	memCalls, streamCalls int64
	memNs, streamNs       float64
	// deviceRaw and deviceCalls total every device interval as measured,
	// clock reads included, for the enclosing controller call to exclude.
	deviceRaw   int64
	deviceCalls int64
}

// add sums another run's times into t.
func (t *layerTimes) add(o *layerTimes) {
	t.accessCalls += o.accessCalls
	t.isaCalls += o.isaCalls
	t.accessNs += o.accessNs
	t.isaNs += o.isaNs
	t.memCalls += o.memCalls
	t.streamCalls += o.streamCalls
	t.memNs += o.memNs
	t.streamNs += o.streamNs
}

// self is the controller's own share of a call that took dt: minus the
// clock read, the device intervals inside it, and the clock reads those
// intervals did not measure.
func (t *layerTimes) self(dt, raw0, calls0 int64) float64 {
	return float64(dt-(t.deviceRaw-raw0)) - clockReadNs*float64(1+t.deviceCalls-calls0)
}

// tracedController times every call into the wrapped controller, and
// forwards every optional interface the simulator probes for.
type tracedController struct {
	policy.Controller
	t *layerTimes
}

func (c *tracedController) Access(now uint64, p addr.Phys, write bool) policy.AccessResult {
	if c.t.record {
		c.t.calls = append(c.t.calls, memAccess(uint64(p), write))
	}
	raw0, calls0 := c.t.deviceRaw, c.t.deviceCalls
	t0 := clock()
	r := c.Controller.Access(now, p, write)
	c.t.accessNs += c.t.self(clock()-t0, raw0, calls0)
	c.t.accessCalls++
	return r
}

func (c *tracedController) ISAAlloc(now uint64, seg addr.Seg) {
	raw0, calls0 := c.t.deviceRaw, c.t.deviceCalls
	t0 := clock()
	c.Controller.ISAAlloc(now, seg)
	c.t.isaNs += c.t.self(clock()-t0, raw0, calls0)
	c.t.isaCalls++
}

func (c *tracedController) ISAFree(now uint64, seg addr.Seg) {
	raw0, calls0 := c.t.deviceRaw, c.t.deviceCalls
	t0 := clock()
	c.Controller.ISAFree(now, seg)
	c.t.isaNs += c.t.self(clock()-t0, raw0, calls0)
	c.t.isaCalls++
}

// SetFastForward forwards the simulator's warm-up switch.
func (c *tracedController) SetFastForward(v bool) {
	if ff, ok := c.Controller.(interface{ SetFastForward(bool) }); ok {
		ff.SetFastForward(v)
	}
}

// CacheModeFraction forwards policy.ModeDistribution; 0 is what the
// simulator records for a design without it.
func (c *tracedController) CacheModeFraction() float64 {
	if md, ok := c.Controller.(policy.ModeDistribution); ok {
		return md.CacheModeFraction()
	}
	return 0
}

// TierAccesses forwards policy.TierAccounting; nil makes the simulator
// derive the split as it does for a design without it.
func (c *tracedController) TierAccesses() []uint64 {
	if ta, ok := c.Controller.(policy.TierAccounting); ok {
		return ta.TierAccesses()
	}
	return nil
}

// tracedMem times every call into a tier device.
type tracedMem struct {
	policy.Mem
	t *layerTimes
}

func (m *tracedMem) Access(now uint64, local uint64, write bool, bytes int) uint64 {
	t0 := clock()
	done := m.Mem.Access(now, local, write, bytes)
	dt := clock() - t0
	m.t.memNs += float64(dt) - clockReadNs
	m.t.memCalls++
	m.t.deviceRaw += dt
	m.t.deviceCalls++
	return done
}

func (m *tracedMem) Stream(now uint64, local uint64, write bool, bytes, lineBytes int) uint64 {
	t0 := clock()
	done := m.Mem.Stream(now, local, write, bytes, lineBytes)
	dt := clock() - t0
	m.t.streamNs += float64(dt) - clockReadNs
	m.t.streamCalls++
	m.t.deviceRaw += dt
	m.t.deviceCalls++
	return done
}

// QueueDelay forwards the device backpressure signal PoM-style designs
// throttle migrations on; without it they would never throttle.
func (m *tracedMem) QueueDelay(now uint64) uint64 {
	if c, ok := m.Mem.(interface{ QueueDelay(uint64) uint64 }); ok {
		return c.QueueDelay(now)
	}
	return 0
}

// captureLimit bounds the references a capture keeps for the osmodel
// and hier replays (32 bytes each); the trace replay regenerates every
// reference the run consumed.
const captureLimit = 1 << 20

// captured is one consumed reference and the core that consumed it.
type captured struct {
	core int32
	ref  trace.Ref
}

// captureSink records a run's reference stream in consumption order.
type captureSink struct {
	profiles []trace.Profile
	perCore  []uint64 // references each core consumed
	refs     []captured
}

func (s *captureSink) Begin(_ string, cores []trace.Profile) error {
	s.profiles = cores
	s.perCore = make([]uint64, len(cores))
	s.refs = make([]captured, 0, captureLimit)
	return nil
}

func (s *captureSink) Emit(core int, r trace.Ref) {
	s.perCore[core]++
	if len(s.refs) < cap(s.refs) {
		s.refs = append(s.refs, captured{int32(core), r})
	}
}

// total is the number of references the run consumed.
func (s *captureSink) total() uint64 {
	var n uint64
	for _, c := range s.perCore {
		n += c
	}
	return n
}

// streams returns fresh reference streams of the captured cores, seeded
// as sim seeds its cores; checkReplay verifies the seeding.
func (s *captureSink) streams(seed uint64) ([]*trace.Stream, error) {
	streams := make([]*trace.Stream, len(s.profiles))
	for i, p := range s.profiles {
		st, err := trace.NewStream(p, seed+uint64(i)*7919+13)
		if err != nil {
			return nil, err
		}
		streams[i] = st
	}
	return streams, nil
}

// replayTrace regenerates every consumed reference from fresh streams
// and returns the pass's nanoseconds.
func replayTrace(s *captureSink, seed uint64) (float64, error) {
	streams, err := s.streams(seed)
	if err != nil {
		return 0, err
	}
	var sink uint64
	t0 := clock()
	for i, st := range streams {
		for n := s.perCore[i]; n > 0; n-- {
			sink += st.Next().VAddr
		}
	}
	dt := clock() - t0
	_ = sink // read so the loop is not dead code
	return float64(dt), nil
}

// replayOS translates the captured references through a fresh OS model
// of the run's configuration, prefaulted as sim prefaults, and returns
// the pass's nanoseconds and each reference's physical address.
func replayOS(cfg osmodel.Config, s *captureSink) (float64, []uint64, error) {
	osm, err := osmodel.New(cfg, nil)
	if err != nil {
		return 0, nil, err
	}
	procs := make([]*osmodel.Process, len(s.profiles))
	var maxFootprint uint64
	for i, p := range s.profiles {
		procs[i] = osm.NewProcess()
		maxFootprint = max(maxFootprint, p.FootprintBytes)
	}
	const chunk = 1 << 20 // sim's prefault interleave
	for off := uint64(0); off < maxFootprint; off += chunk {
		for i, p := range s.profiles {
			if off < p.FootprintBytes {
				osm.Map(procs[i], off, min(chunk, p.FootprintBytes-off), 0)
			}
		}
	}
	phys := make([]uint64, len(s.refs))
	now := make([]uint64, len(s.profiles))
	t0 := clock()
	for k, c := range s.refs {
		now[c.core] += c.ref.Gap
		p, stall := osm.Translate(procs[c.core], c.ref.VAddr, now[c.core])
		now[c.core] += stall
		phys[k] = uint64(p)
	}
	return float64(clock() - t0), phys, nil
}

// replayHier walks the captured references through a fresh cache
// hierarchy and returns the pass's nanoseconds.
func replayHier(levels []config.CacheLevelConfig, s *captureSink, phys []uint64) (float64, error) {
	h, err := hier.New(levels, len(s.profiles))
	if err != nil {
		return 0, err
	}
	now := make([]uint64, len(s.profiles))
	t0 := clock()
	for k, c := range s.refs {
		now[c.core] += c.ref.Gap
		stall, _, _ := h.Access(int(c.core), phys[k], c.ref.Write, now[c.core])
		now[c.core] += stall
	}
	return float64(clock() - t0), nil
}

// memAccess packs a memory-side access for comparison.
func memAccess(phys uint64, write bool) uint64 {
	v := phys << 1
	if write {
		v |= 1
	}
	return v
}

// checkReplay checks, untimed, that the replays rebuild the run they
// time. The regenerated streams must reproduce every captured
// reference, which they do only when seeded as sim seeds its cores. And
// the captured references, translated by the replayed OS model (phys)
// and walked through a fresh hierarchy, must send the memory side the
// accesses the run's controller received (calls), in order and at the
// same physical addresses, which holds only when the replayed OS lays
// memory out as sim prefaults it.
func checkReplay(s *captureSink, seed uint64, levels []config.CacheLevelConfig, phys, calls []uint64) error {
	streams, err := s.streams(seed)
	if err != nil {
		return err
	}
	for k, c := range s.refs {
		if got := streams[c.core].Next(); got != c.ref {
			return fmt.Errorf("replay: reference %d (core %d) regenerates as %+v, the run consumed %+v", k, c.core, got, c.ref)
		}
	}
	h, err := hier.New(levels, len(s.profiles))
	if err != nil {
		return err
	}
	n := 0
	match := func(a uint64, write bool) error {
		if n >= len(calls) || calls[n] != memAccess(a, write) {
			return fmt.Errorf("replay: memory access %d is %#x (write %v), not the run's", n, a, write)
		}
		n++
		return nil
	}
	now := make([]uint64, len(s.profiles))
	for k, c := range s.refs {
		now[c.core] += c.ref.Gap
		stall, llcMiss, victims := h.Access(int(c.core), phys[k], c.ref.Write, now[c.core])
		now[c.core] += stall
		for _, v := range victims {
			if err := match(v.Addr, true); err != nil {
				return err
			}
		}
		if llcMiss {
			if err := match(phys[k], false); err != nil {
				return err
			}
		}
	}
	return nil
}

// layerSplit is the simulator half of a traced run. For budget seconds
// it alternates plain and traced runs of o (each checked against the
// reference digest ref), then captures one run's reference stream and
// replays it layer by layer. seqRuns are the threads=1 set-up runs.
func layerSplit(o sim.Options, instr uint64, ref string, seqRuns []float64, minRuns int, budget float64, r *report) error {
	var plain, traced, builds []float64
	var times layerTimes
	var last *sim.Result
	fallbacks := 0
	host := newHostClock()
	start := time.Now()
	for n := 0; n < 2*minRuns || time.Since(start).Seconds() < budget; n++ {
		host.sample()
		run := o
		if n%2 == 1 {
			run.Policy = tracedPolicy
		}
		sys, build, err := timedNew(run)
		if err != nil {
			return err
		}
		t0 := time.Now()
		res, err := sys.Run(instr)
		d := time.Since(t0) + build
		if err == nil {
			err = checkDigest(res, ref)
		}
		r.op(err)
		if err != nil {
			continue
		}
		if fellBack(res) {
			fallbacks++
		}
		if n%2 == 1 {
			times.add(sys.Controller().(*tracedController).t)
			traced = append(traced, d.Seconds())
		} else {
			plain = append(plain, d.Seconds())
			builds = append(builds, build.Seconds())
		}
		last = res
	}
	if len(plain) == 0 || len(traced) == 0 {
		return fmt.Errorf("no plain or no traced simulation succeeded")
	}

	sink := &captureSink{}
	capOpts := o
	capOpts.TraceSink, capOpts.Policy = sink, recordingPolicy
	sys, _, err := timedNew(capOpts)
	if err != nil {
		return err
	}
	res, err := sys.Run(instr)
	if err == nil {
		err = checkDigest(res, ref)
	}
	r.op(err)
	if err != nil {
		return fmt.Errorf("captured run: %w", err)
	}
	traceNs, err := replayTrace(sink, o.Seed)
	if err != nil {
		return err
	}
	osNs, phys, err := replayOS(sys.OS().Config(), sink)
	if err != nil {
		return err
	}
	hierNs, err := replayHier(o.Config.CacheLevels, sink, phys)
	if err != nil {
		return err
	}
	r.op(checkReplay(sink, o.Seed, o.Config.CacheLevels, phys, sys.Controller().(*tracedController).t.calls))

	refs := float64(sink.total())
	replayed := float64(len(sink.refs))
	runs := float64(len(traced))
	tracedRefs := refs * runs
	simNs := median(plain) * 1e9 / refs
	tracePer, osPer, hierPer := traceNs/refs, osNs/replayed, hierNs/replayed
	layerSum := tracePer + osPer + hierPer + (times.accessNs+times.isaNs+times.memNs+times.streamNs)/tracedRefs

	r.add("trace.refs", refs, "count", 1)
	r.add("trace.ns_per_ref", tracePer, "ns", int(refs))
	r.add("osmodel.translate_ns_per_ref", osPer, "ns", int(replayed))
	r.add("osmodel.page_faults", float64(last.OS.MinorFaults+last.OS.MajorFaults), "count", 1)
	r.add("hier.access_ns_per_ref", hierPer, "ns", int(replayed))
	r.add("hier.l1_miss_rate", last.Levels[0].MissRate(), "frac", 1)
	llc := last.Levels[len(last.Levels)-1]
	r.add("hier.llc_miss_rate", llc.MissRate(), "frac", 1)
	r.add("hier.llc_writebacks", float64(llc.Writebacks), "count", 1)

	r.add("policy.access_calls", float64(times.accessCalls)/runs, "count", len(traced))
	r.add("policy.access_ns_per_call", ratio(times.accessNs, float64(times.accessCalls)), "ns", int(times.accessCalls))
	r.add("policy.isa_calls", float64(times.isaCalls)/runs, "count", len(traced))
	r.add("policy.isa_ns_per_call", ratio(times.isaNs, float64(times.isaCalls)), "ns", int(times.isaCalls))
	r.add("policy.stacked_hit_rate", last.StackedHitRate, "frac", 1)
	r.add("policy.swaps", float64(last.Ctrl.Swaps), "count", 1)
	r.add("policy.cache_mode_fraction", last.CacheModeFraction, "frac", 1)

	var rowHits, rowAll, util float64
	for _, t := range last.Tiers {
		rowHits += t.Device["row_hits"]
		rowAll += t.Device["row_hits"] + t.Device["row_misses"] + t.Device["row_conflicts"]
		util += t.Utilization / float64(len(last.Tiers))
	}
	r.add("memtier.access_calls", float64(times.memCalls)/runs, "count", len(traced))
	r.add("memtier.access_ns_per_call", ratio(times.memNs, float64(times.memCalls)), "ns", int(times.memCalls))
	r.add("memtier.stream_calls", float64(times.streamCalls)/runs, "count", len(traced))
	r.add("memtier.stream_ns_per_call", ratio(times.streamNs, float64(times.streamCalls)), "ns", int(times.streamCalls))
	r.add("memtier.row_hit_rate", ratio(rowHits, rowAll), "frac", 1)
	r.add("memtier.utilization", util, "frac", 1)

	r.add("sim.new_ms", median(builds)*1e3, "ms", len(builds))
	r.add("sim.ns_per_ref", simNs, "ns", len(plain))
	r.add("sim.engine_ns_per_ref", simNs-layerSum, "ns", len(plain))
	r.add("sim.layer_sum_ratio", layerSum/simNs, "frac", len(plain))
	r.add("sim.sequential_run_s", median(seqRuns), "s", len(seqRuns))
	r.add("sim.fallback_runs", float64(fallbacks), "count", len(plain)+len(traced))

	r.add("bench.clock_read_ns", clockReadNs, "ns", 9)
	r.add("bench.host_factor", host.factor(), "x", len(host.samples))
	r.add("bench.tracing_overhead_pct", (median(traced)/median(plain)-1)*100, "pct", len(traced))
	return nil
}
