package server

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"chameleon/internal/config"
	"chameleon/internal/sim"
)

// fastSpec is a sim job small enough for unit tests (~tens of ms).
func fastSpec(seed uint64) JobSpec {
	return JobSpec{
		Kind: KindSim, Policy: "chameleon-opt", Workload: "bwaves",
		Scale: 1024, Instructions: 5_000, Warmup: 1, Seed: seed,
		TimelineEpochCycles: 10_000,
	}
}

// slowSpec is a sim job that runs long enough to be canceled mid-run.
func slowSpec(seed uint64) JobSpec {
	s := fastSpec(seed)
	s.Instructions = 1 << 40
	return s
}

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s := New(opts)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

func waitTerminal(t *testing.T, j *Job, timeout time.Duration) JobStatus {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(timeout):
		t.Fatalf("job %s not terminal after %s (state %s)", j.ID, timeout, j.Status().State)
	}
	return j.Status()
}

func TestSubmitResultMatchesDirectRun(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	j, err := s.Submit(fastSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j, 30*time.Second)
	if st.State != StateDone {
		t.Fatalf("state = %s (err %q), want done", st.State, st.Error)
	}
	body, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	var got sim.Result
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}

	// The same spec run directly must agree exactly: the simulator is
	// deterministic in its options and seed.
	o, err := j.Spec.Cell().Options()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := sim.New(o)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.Run(j.Spec.Instructions)
	if err != nil {
		t.Fatal(err)
	}
	// Every field, the timeline every job attaches included.
	gb, err := json.Marshal(&got)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(gb) != string(wb) {
		t.Errorf("served result JSON diverged from the direct run:\ndirect: %s\nserved: %s", wb, gb)
	}
}

func TestDuplicateSubmitHitsCache(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	j1, err := s.Submit(fastSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j1, 30*time.Second)
	r1, err := j1.Result()
	if err != nil {
		t.Fatal(err)
	}

	j2, err := s.Submit(fastSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	st := j2.Status() // terminal immediately, no queue involved
	if st.State != StateDone || !st.Cached {
		t.Fatalf("duplicate submit: state=%s cached=%v, want done/true", st.State, st.Cached)
	}
	r2, _ := j2.Result()
	if string(r1) != string(r2) {
		t.Fatal("cached result differs from original")
	}
	// Miss and hit alike, the job carries the hash submit computed.
	norm, err := fastSpec(4).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if j1.Hash != norm.Hash() || j2.Hash != norm.Hash() {
		t.Fatalf("job hashes %s (miss), %s (hit), want %s", j1.Hash, j2.Hash, norm.Hash())
	}
	if s.Metrics().CacheHits.Value() != 1 {
		t.Fatalf("cache hits = %d, want 1", s.Metrics().CacheHits.Value())
	}
	// A different seed is a different content address.
	j3, err := s.Submit(fastSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	if j3.Status().Cached {
		t.Fatal("different seed must not hit the cache")
	}
}

func TestManyJobsFewWorkers(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2, QueueDepth: 64})
	const n = 10
	jobs := make([]*Job, n)
	for i := range jobs {
		j, err := s.Submit(fastSpec(uint64(100 + i)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs[i] = j
	}
	for i, j := range jobs {
		if st := waitTerminal(t, j, 60*time.Second); st.State != StateDone {
			t.Fatalf("job %d: state %s (err %q)", i, st.State, st.Error)
		}
	}
	m := s.Metrics()
	if m.JobsDone.Value() != n {
		t.Fatalf("jobs_done = %d, want %d", m.JobsDone.Value(), n)
	}
	if m.JobsQueued.Value() != 0 || m.JobsRunning.Value() != 0 {
		t.Fatalf("gauges not drained: queued=%d running=%d",
			m.JobsQueued.Value(), m.JobsRunning.Value())
	}
}

func TestCancelMidRun(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	j, err := s.Submit(slowSpec(6))
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the job to actually start.
	deadline := time.Now().Add(10 * time.Second)
	for j.Status().State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %s", j.Status().State)
		}
		time.Sleep(time.Millisecond)
	}
	if ok, err := s.Cancel(j.ID); err != nil || !ok {
		t.Fatalf("cancel: ok=%v err=%v", ok, err)
	}
	st := waitTerminal(t, j, 10*time.Second)
	if st.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", st.State)
	}
	if _, err := j.Result(); err == nil {
		t.Fatal("canceled job must not serve a result")
	}
}

func TestCancelQueuedJob(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, QueueDepth: 8})
	blocker, err := s.Submit(slowSpec(7)) // occupies the only worker
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(fastSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := s.Cancel(queued.ID); err != nil || !ok {
		t.Fatalf("cancel queued: ok=%v err=%v", ok, err)
	}
	st := waitTerminal(t, queued, 5*time.Second)
	if st.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", st.State)
	}
	if ok, _ := s.Cancel(blocker.ID); !ok {
		t.Fatal("cancel running blocker failed")
	}
	waitTerminal(t, blocker, 10*time.Second)
}

func TestJobDeadline(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	spec := slowSpec(9)
	spec.TimeoutMS = 50
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j, 10*time.Second)
	if st.State != StateFailed {
		t.Fatalf("state = %s, want failed (deadline)", st.State)
	}
	if st.Error == "" {
		t.Fatal("deadline failure should carry an error")
	}
}

func TestShutdownDrains(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 8})
	// The first job must still be in flight when Shutdown starts, or
	// the worker dequeues a slow job before draining begins and runs
	// it to the shutdown deadline. A fast job finishes in a few
	// milliseconds, which a loaded host can spend before Shutdown; a
	// slow job with a deadline stays in flight for a second, then
	// ends (terminal) on its own.
	first := slowSpec(10)
	first.TimeoutMS = 1000
	running, err := s.Submit(first)
	if err != nil {
		t.Fatal(err)
	}
	queued := make([]*Job, 3)
	for i := range queued {
		if queued[i], err = s.Submit(slowSpec(uint64(20 + i))); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The in-flight (or first-dequeued) job ran to completion or was
	// at least terminal; queued slow jobs were canceled, not run.
	if st := running.Status(); !st.State.Terminal() {
		t.Fatalf("first job not terminal after shutdown: %s", st.State)
	}
	for i, j := range queued {
		st := j.Status()
		if !st.State.Terminal() {
			t.Fatalf("queued job %d not terminal after shutdown: %s", i, st.State)
		}
	}
	if _, err := s.Submit(fastSpec(30)); err == nil {
		t.Fatal("submit after shutdown should fail")
	}
}

func TestSpecValidation(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	for name, spec := range map[string]JobSpec{
		"no policy":        {Kind: KindSim, Workload: "bwaves"},
		"bad policy":       {Policy: "nope", Workload: "bwaves"},
		"no workload":      {Policy: "pom"},
		"bad workload":     {Policy: "pom", Workload: "nope"},
		"bad kind":         {Kind: "exotic"},
		"bad scale":        {Policy: "pom", Workload: "bwaves", Scale: 3},
		"negative timeout": {Policy: "pom", Workload: "bwaves", TimeoutMS: -1},
		"bad cache levels": {Policy: "pom", Workload: "bwaves", CacheLevels: []config.CacheLevelConfig{
			{Name: "L1", SizeBytes: 32 * config.KB, Ways: 4, LineBytes: 48, LatencyCycles: 4}}},
		"shrinking cache latency": {Policy: "pom", Workload: "bwaves", CacheLevels: []config.CacheLevelConfig{
			{Name: "L1", SizeBytes: 32 * config.KB, Ways: 4, LineBytes: 64, LatencyCycles: 4},
			{Name: "LLC", SizeBytes: 1 * config.MB, Ways: 16, LineBytes: 64, LatencyCycles: 2, Shared: true}}},
	} {
		if _, err := s.Submit(spec); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestCacheLevelsJob: a spec carrying an explicit hierarchy runs behind
// that stack — the result reports the custom levels — and the hierarchy
// is part of the job's content address.
func TestCacheLevelsJob(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	spec := fastSpec(7)
	spec.CacheLevels = []config.CacheLevelConfig{
		{Name: "L1", SizeBytes: 16 * config.KB, Ways: 2, LineBytes: 64, LatencyCycles: 4},
		{Name: "LLC", SizeBytes: 256 * config.KB, Ways: 8, LineBytes: 64, LatencyCycles: 30, Shared: true},
	}
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j, 30*time.Second)
	if st.State != StateDone {
		t.Fatalf("state = %s (err %q), want done", st.State, st.Error)
	}
	body, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	var got sim.Result
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Levels) != 2 || got.Levels[0].Level != "L1" || got.Levels[1].Level != "LLC" {
		t.Fatalf("result levels = %+v, want the submitted 2-level stack", got.Levels)
	}
	def, err := fastSpec(7).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if def.Hash() == norm.Hash() {
		t.Fatal("cache hierarchy must change the job's content address")
	}
}

func TestHashCanonicalization(t *testing.T) {
	// Explicit defaults and omitted fields are the same job.
	a, err := JobSpec{Policy: "pom", Workload: "bwaves"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := JobSpec{Kind: KindSim, Policy: "pom", Workload: "bwaves",
		Scale: 256, Instructions: 500_000, Warmup: 4_000_000, Seed: 42,
		TimelineEpochCycles: 1_000_000}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() != b.Hash() {
		t.Fatal("defaulted and explicit specs should share a hash")
	}
	// Scheduling-only knobs don't change identity.
	c := a
	c.TimeoutMS = 9999
	if a.Hash() != c.Hash() {
		t.Fatal("timeout must not change the content address")
	}
	// Result-affecting knobs do.
	d := a
	d.Seed = 43
	if a.Hash() == d.Hash() {
		t.Fatal("seed must change the content address")
	}
}

func TestMetricsSnapshot(t *testing.T) {
	m := NewMetrics()
	m.CacheHits.Add(3)
	m.CacheMisses.Add(1)
	if r := m.CacheHitRate(); r != 0.75 {
		t.Fatalf("hit rate = %v, want 0.75", r)
	}
	m.ObserveQueueWait(5 * time.Millisecond)
	m.ObserveQueueWait(2 * time.Second)
	snap := m.queueWaitSnapshot()
	if snap["count"] != 2 || snap["le_10"] != 1 || snap["le_10000"] != 1 {
		t.Fatalf("histogram snapshot wrong: %v", snap)
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(m.Vars().String()), &decoded); err != nil {
		t.Fatalf("expvar map is not valid JSON: %v", err)
	}
	for _, key := range []string{"jobs_done", "cache_hit_rate", "queue_wait_ms", "sim_cycles_per_sec"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("metrics missing %s: %v", key, decoded)
		}
	}
}

func TestMatrixJobEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix job is comparatively heavy")
	}
	s := newTestServer(t, Options{Workers: 1})
	j, err := s.Submit(JobSpec{
		Kind: KindMatrix, Workloads: []string{"bwaves"},
		Scale: 1024, Instructions: 10_000, Warmup: 1, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j, 120*time.Second)
	if st.State != StateDone {
		t.Fatalf("matrix job: state %s (err %q)", st.State, st.Error)
	}
	if st.Progress.TotalCells != 8 || st.Progress.DoneCells != 8 {
		t.Fatalf("matrix progress = %+v, want 8/8 cells", st.Progress)
	}
	body, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	var payload matrixPayload
	if err := json.Unmarshal(body, &payload); err != nil {
		t.Fatal(err)
	}
	for _, policy := range []string{"flat-20", "flat-24", "chameleon-opt", "pom"} {
		if payload.Results[policy]["bwaves"] == nil {
			t.Errorf("matrix payload missing %s/bwaves (have %d policies)", policy, len(payload.Results))
		}
	}
	// Matrix cells are counted like sim jobs.
	var cycles int64
	for _, rows := range payload.Results {
		for _, r := range rows {
			cycles += int64(r.MaxCycles)
		}
	}
	if n := s.Metrics().SimRuns.Value(); n != 8 {
		t.Errorf("sim_runs_total = %d, want 8 matrix cells", n)
	}
	if n := s.Metrics().SimCycles.Value(); n != cycles {
		t.Errorf("sim_cycles_total = %d, want %d summed over the matrix cells", n, cycles)
	}
}

func TestProgressFromTimelineEpochs(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	spec := fastSpec(12)
	spec.Instructions = 60_000
	spec.TimelineEpochCycles = 5_000
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j, 30*time.Second)
	if st.State != StateDone {
		t.Fatalf("state = %s (err %q)", st.State, st.Error)
	}
	if st.Progress.Epochs == 0 || st.Progress.Cycle == 0 {
		t.Fatalf("no progress recorded from timeline epochs: %+v", st.Progress)
	}
	var res sim.Result
	body, _ := j.Result()
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if st.Progress.Epochs != len(res.Timeline) {
		t.Fatalf("progress epochs %d != timeline points %d", st.Progress.Epochs, len(res.Timeline))
	}
}

func TestStoreListOrder(t *testing.T) {
	st := NewStore()
	spec, err := JobSpec{Policy: "pom", Workload: "bwaves"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 5; i++ {
		ids = append(ids, st.NewJob(spec, spec.Hash(), time.Now()).ID)
	}
	list := st.List()
	if len(list) != 5 {
		t.Fatalf("list = %d jobs, want 5", len(list))
	}
	for i, s := range list {
		if s.ID != ids[i] {
			t.Fatalf("list out of submission order: %v", list)
		}
	}
	if _, ok := st.Get("nope"); ok {
		t.Fatal("unknown ID should miss")
	}
	if _, ok := st.Get(ids[2]); !ok {
		t.Fatal("known ID should hit")
	}
}

// runMatrixJob runs a small matrix job over wls to completion on s and
// returns its final status and payload bytes.
func runMatrixJob(t *testing.T, s *Server, wls ...string) (JobStatus, []byte) {
	t.Helper()
	j, err := s.Submit(JobSpec{
		Kind: KindMatrix, Workloads: wls,
		Scale: 1024, Instructions: 5_000, Warmup: 1, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j, 120*time.Second)
	if st.State != StateDone {
		t.Fatalf("matrix job: state %s (err %q)", st.State, st.Error)
	}
	b, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	return st, b
}

// TestMatrixJobSharesCellCache: a matrix job's cells land in the result
// cache that sim jobs and sweeps share. A sim job for one of its cells
// is a cache hit, and a matrix job with one more workload simulates
// only the new workload's cells and reports the others as cached.
func TestMatrixJobSharesCellCache(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	runMatrixJob(t, s, "bwaves")
	if n := s.Metrics().DSECellsSimulated.Value(); n != 8 {
		t.Fatalf("first matrix simulated %d cells, want 8", n)
	}
	for _, spec := range []JobSpec{
		{Policy: "chameleon-opt", Workload: "bwaves", Scale: 1024, Instructions: 5_000, Warmup: 1, Seed: 11},
		{Policy: "flat", BaselineGB: 20, Workload: "bwaves", Scale: 1024, Instructions: 5_000, Warmup: 1, Seed: 11},
	} {
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitTerminal(t, j, 30*time.Second); !st.Cached {
			t.Errorf("sim job for the matrix's %s/bwaves cell: state %s, cached %v, want a cache hit",
				spec.Policy, st.State, st.Cached)
		}
	}
	st, _ := runMatrixJob(t, s, "bwaves", "mcf")
	if n := s.Metrics().DSECellsSimulated.Value(); n != 16 {
		t.Errorf("second matrix simulated %d more cells, want only mcf's 8", n-8)
	}
	if n := s.Metrics().DSECellsCached.Value(); n != 8 {
		t.Errorf("second matrix served %d cells from cache, want bwaves' 8", n)
	}
	if p := st.Progress; p.CachedCells != 8 || p.DoneCells != 16 || p.TotalCells != 16 {
		t.Errorf("second matrix progress = %+v, want 16/16 cells done, bwaves' 8 cached", p)
	}
}
