package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"slices"
	"time"

	"chameleon/internal/dse"
	"chameleon/internal/server"
	"chameleon/internal/sim"
)

// The service workloads drive an in-process chamd on loopback HTTP with
// one closed-loop client. Each sends one kind of request, so that each
// round trip is reported on its own: a cache hit, a cache miss (a fresh
// simulation) and a DSE sweep. No workload blends them, since no record
// of chamd traffic says in what proportions users send them. One client
// times each request with nothing else running in the server: a job
// already runs on both CPUs of the host the benchmark was sized on (two
// simulation threads), as does a sweep (two cells at a time), so a
// second client would only interleave with the first. And between two
// requests the server is idle, so the host kernel can be timed there.
var (
	// designs are the four designs of the paper's main comparison.
	designs = []string{"alloy", "pom", "chameleon", "chameleon-opt"}
	// jobWorkloads span Table II's LLC-MPKI range: its highest (mcf,
	// 59.8), its lowest (miniGhost, 0.19) and four between.
	jobWorkloads = []string{"mcf", "lbm", "bwaves", "hpccg", "comd", "miniGhost"}
)

const (
	// Every service job simulates this many instructions per core.
	jobWarmup = 250_000
	jobInstr  = 100_000
	// The cells of a dse-sweep sweep simulate a sweepShrink-th of that,
	// so that a run of the benchmark times a dozen or more 24-cell
	// sweeps even when the host runs at a third of its speed.
	sweepShrink = 5
	// pollEvery is the client's status-poll interval, under 5% of a
	// fresh job's run time.
	pollEvery = 5 * time.Millisecond
	// A hit answers in well under a millisecond, and chamd's job store
	// keeps every job it has answered, so an unpaced loop of hits would
	// grow the server's memory with the server's speed. The chamd-hit
	// client sends hitBurst requests back to back, then waits out the
	// rest of hitPace, so every run sends the same number of requests.
	hitBurst = 10
	hitPace  = 25 * time.Millisecond
	// seedStride spaces the job seeds of one benchmark seed from the
	// next, so no two runs' jobs collide and no job seed is 0.
	seedStride = 1 << 20
	// probeHits is the hit count of a traced run's service probe.
	probeHits = 10
	// serviceHostSamples is how many host-speed samples follow each
	// set-up and the traffic; the server is idle then, so they measure
	// the host, not the server's load.
	serviceHostSamples = 3
	// The representative job of the service workloads' traced runs:
	// chameleon-opt on one of the two middle LLC-MPKIs of jobWorkloads.
	repDesign, repWorkload = "chameleon-opt", "bwaves"
)

type reqKind int

const (
	kindHit  reqKind = iota // a job warmed in set-up: a cache hit
	kindMiss                // a job at a fresh seed: a simulation
	// kindSweep is a sweep at a fresh seed, every cell simulated: in
	// traffic, every design on every workload, the pool's 24 pairs, the
	// default sweep of the DSE layer cut down to the service's jobs.
	kindSweep
	// kindWarmSweep re-asks a finished sweep's cells under other
	// objectives: every cell comes from the cache. Traced runs only.
	kindWarmSweep
)

// groups is how many request groups a kind cycles through: a design x
// workload pair for a job; sweeps are all alike.
func groups(k reqKind) int {
	if k == kindSweep {
		return 1
	}
	return len(designs) * len(jobWorkloads)
}

// request is one client request and what its answer must be.
type request struct {
	kind reqKind
	spec server.JobSpec
	// group is the request's group (see groups); for a hit, also the
	// pool entry its answer must equal byte for byte.
	group int
}

// span is one answered request, timed at the client, with the server's
// job timestamps.
type span struct {
	kind                 reqKind
	group                int
	total, submit, fetch time.Duration
	polls                int
	// queueWait and run are the server's queued and running times
	// (jobs that ran only).
	queueWait, run time.Duration
	resultBytes    int
	sweep          *dse.Result
	// factor is the host factor total is reported divided by (1: none).
	factor float64
}

// requests is a seeded stream of one kind of request. Its groups come
// in seeded permutations, so any stretch of the stream covers them
// evenly.
type requests struct {
	kind          reqKind
	rnd           *rand.Rand
	poolSeed      uint64
	fresh         uint64 // last job seed handed out
	instr, warmup uint64
	order         []int // rest of the current permutation
	issued, limit int
}

func newRequests(kind reqKind, seed, instr, warmup uint64, limit int) *requests {
	pool := seed*seedStride + 1
	return &requests{kind: kind, rnd: rand.New(rand.NewSource(int64(seed))), poolSeed: pool, fresh: pool,
		instr: instr, warmup: warmup, limit: limit}
}

// job is the spec of design x workload pair i at a seed.
func (g *requests) job(i int, seed uint64) server.JobSpec {
	return server.JobSpec{Policy: designs[i%len(designs)], Workload: jobWorkloads[i/len(designs)],
		Scale: scale, Instructions: g.instr, Warmup: g.warmup, Seed: seed}
}

// poolSpecs is the set-up's warmed pool: every pair at the pool seed.
func (g *requests) poolSpecs() []server.JobSpec {
	specs := make([]server.JobSpec, groups(kindHit))
	for i := range specs {
		specs[i] = g.job(i, g.poolSeed)
	}
	return specs
}

// freshSeed hands out a job seed no earlier request used.
func (g *requests) freshSeed() uint64 {
	g.fresh++
	return g.fresh
}

// next returns the next request, or false once limit were issued.
func (g *requests) next() (request, bool) {
	if g.limit > 0 && g.issued >= g.limit {
		return request{}, false
	}
	g.issued++
	if len(g.order) == 0 {
		g.order = g.rnd.Perm(groups(g.kind))
	}
	i := g.order[0]
	g.order = g.order[1:]
	switch g.kind {
	case kindHit:
		return request{kind: kindHit, group: i, spec: g.job(i, g.poolSeed)}, true
	case kindMiss:
		return request{kind: kindMiss, group: i, spec: g.job(i, g.freshSeed())}, true
	}
	return request{kind: kindSweep, group: i,
		spec: sweepSpec(jobWorkloads, g.freshSeed(), g.instr/sweepShrink, g.warmup/sweepShrink, nil)}, true
}

// sweepSpec is a DSE job over every design on the workloads at one seed;
// nil objectives take the default front.
func sweepSpec(wls []string, seed, instr, warmup uint64, objectives []dse.Objective) server.JobSpec {
	return server.JobSpec{Kind: server.KindDSE, Instructions: instr, Warmup: warmup,
		DSE: &dse.Spec{Policies: designs, Workloads: wls, Scales: []uint64{scale}, Seeds: []uint64{seed},
			Objectives: objectives}}
}

// loopback is an HTTP server on a loopback port.
type loopback struct {
	hs     *http.Server
	served chan error
	url    string
}

// serveLoopback serves h on a free loopback port until stop.
func serveLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{hs: &http.Server{Handler: h}, served: make(chan error, 1), url: "http://" + ln.Addr().String()}
	go func() { l.served <- l.hs.Serve(ln) }()
	return l, nil
}

// stop shuts the server down and waits until it has stopped serving.
func (l *loopback) stop(ctx context.Context) error {
	err := l.hs.Shutdown(ctx)
	if serr := <-l.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// service is an in-process chamd serving loopback HTTP, with its pool
// of warmed jobs and their results.
type service struct {
	srv   *server.Server
	http  *loopback
	specs []server.JobSpec
	pool  []json.RawMessage
}

// startService starts a server with default options and warms the pool:
// it runs every pool spec and keeps each result's bytes.
func startService(ctx context.Context, pool []server.JobSpec) (*service, error) {
	s := &service{srv: server.New(server.Options{}), specs: pool}
	var err error
	if s.http, err = serveLoopback(s.srv.Handler()); err != nil {
		return nil, errors.Join(err, s.srv.Shutdown(ctx))
	}
	cl := server.NewClient(s.http.url)
	ids := make([]string, len(pool))
	for i, spec := range pool {
		st, err := cl.Submit(ctx, spec)
		if err != nil {
			return nil, errors.Join(fmt.Errorf("warm pool: %w", err), s.stop())
		}
		ids[i] = st.ID
	}
	s.pool = make([]json.RawMessage, len(pool))
	for i, id := range ids {
		st, _, err := awaitJob(ctx, cl, server.JobStatus{ID: id})
		if err == nil {
			err = cl.Result(ctx, st.ID, &s.pool[i])
		}
		if err == nil {
			err = checkSimResult(s.pool[i], pool[i])
		}
		if err != nil {
			return nil, errors.Join(fmt.Errorf("warm pool: %w", err), s.stop())
		}
	}
	return s, nil
}

// awaitJob polls a job every pollEvery until it ends, and returns its
// final status and the number of polls; a job that did not finish is an
// error.
func awaitJob(ctx context.Context, cl *server.Client, st server.JobStatus) (server.JobStatus, int, error) {
	polls := 0
	for !st.State.Terminal() {
		time.Sleep(pollEvery)
		var err error
		if st, err = cl.Status(ctx, st.ID); err != nil {
			return st, polls, err
		}
		polls++
	}
	if st.State != server.StateDone {
		return st, polls, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	return st, polls, nil
}

// stop shuts the HTTP listener and the server down and waits for both.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.http.stop(ctx)
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	return errors.Join(err, s.srv.Shutdown(ctx))
}

// traffic sends the requests from next one at a time, until next runs
// out or the deadline passes, and returns the answered ones. Before
// each request, with the server idle, it calls gauge unless nil: the
// host factor the request's round trip is to be divided by.
func (s *service) traffic(ctx context.Context, next func() (request, bool), gauge func() (float64, error), deadline time.Time, r *report) []span {
	cl := server.NewClient(s.http.url)
	var spans []span
	for time.Now().Before(deadline) {
		f := 1.0
		if gauge != nil {
			var err error
			if f, err = gauge(); err != nil {
				r.op(fmt.Errorf("host gauge: %w", err))
				continue
			}
		}
		req, ok := next()
		if !ok {
			break
		}
		sp, err := s.do(ctx, cl, req)
		r.op(err)
		if err == nil {
			sp.factor = f
			spans = append(spans, sp)
		}
	}
	return spans
}

// The chamd-hit host gauge. A hit's round trip is two loopback HTTP
// exchanges and little else, so it slows with the host's networking
// and scheduling, not with the memory-heavy kernel of hostClock: its
// host factor is the median of gaugeTrips round trips to a server that
// answers a result-sized body without doing any work, over that round
// trip's typical time on the host the benchmark was sized on (44 to 65
// us over the runs it was measured on).
const (
	gaugeTrips   = 10
	gaugeBytes   = 3 << 10 // about a cached sim result
	gaugeNominal = 50 * time.Microsecond
)

// serveNull starts the gauge's server.
func serveNull() (*loopback, error) {
	body := bytes.Repeat([]byte{'x'}, gaugeBytes)
	return serveLoopback(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write(body) // a failed write surfaces as the client's error
	}))
}

// roundTrip times one request to l, its body read to the end.
func (l *loopback) roundTrip(ctx context.Context) (time.Duration, error) {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, l.url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// hitGauge returns the chamd-hit client's gauge. It paces the client:
// hitBurst requests go back to back, then it waits until hitPace has
// passed since the burst began. Before each burst it gauges the host,
// and every request of the burst is divided by that factor.
func hitGauge(ctx context.Context, null *loopback) func() (float64, error) {
	n, start, f := 0, time.Now(), 0.0
	return func() (float64, error) {
		if n%hitBurst == 0 {
			if n > 0 {
				if start = start.Add(hitPace); time.Until(start) > 0 {
					time.Sleep(time.Until(start))
				} else {
					start = time.Now()
				}
			}
			trips := make([]float64, gaugeTrips)
			for i := range trips {
				d, err := null.roundTrip(ctx)
				if err != nil {
					return 0, err
				}
				trips[i] = d.Seconds()
			}
			f = median(trips) / gaugeNominal.Seconds()
		}
		n++
		return f, nil
	}
}

// do sends one request, polls its job to completion, fetches the result
// and checks it.
func (s *service) do(ctx context.Context, cl *server.Client, req request) (span, error) {
	sp := span{kind: req.kind, group: req.group}
	start := time.Now()
	st, err := cl.Submit(ctx, req.spec)
	if err != nil {
		return sp, err
	}
	sp.submit = time.Since(start)
	if st, sp.polls, err = awaitJob(ctx, cl, st); err != nil {
		return sp, err
	}
	fetch := time.Now()
	var raw json.RawMessage
	if err := cl.Result(ctx, st.ID, &raw); err != nil {
		return sp, err
	}
	sp.fetch = time.Since(fetch)
	sp.total = time.Since(start)
	sp.resultBytes = len(raw)
	if st.StartedAt != nil && st.FinishedAt != nil {
		sp.queueWait = st.StartedAt.Sub(st.SubmittedAt)
		sp.run = st.FinishedAt.Sub(*st.StartedAt)
	}
	if want := req.kind == kindHit; st.Cached != want {
		return sp, fmt.Errorf("job %s: cached=%v, want %v", st.ID, st.Cached, want)
	}
	switch req.kind {
	case kindHit:
		if !bytes.Equal(raw, s.pool[req.group]) {
			return sp, fmt.Errorf("job %s: cached result differs from its pool entry", st.ID)
		}
		return sp, nil
	case kindMiss:
		return sp, checkSimResult(raw, req.spec)
	}
	var res dse.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return sp, fmt.Errorf("job %s: %w", st.ID, err)
	}
	cells, cached := len(req.spec.DSE.Policies)*len(req.spec.DSE.Workloads), 0
	if req.kind == kindWarmSweep {
		cached = cells
	}
	if res.TotalCells != cells || res.Evaluated != cells || res.Cached != cached {
		return sp, fmt.Errorf("job %s: sweep evaluated %d of %d cells with %d cached, want %d of %d with %d",
			st.ID, res.Evaluated, res.TotalCells, res.Cached, cells, cells, cached)
	}
	sp.sweep = &res
	return sp, nil
}

// checkSimResult checks that raw decodes to a result of the spec's
// policy and workload on every core.
func checkSimResult(raw []byte, spec server.JobSpec) error {
	var res sim.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return fmt.Errorf("decode result: %w", err)
	}
	if res.Policy != spec.Policy || res.Workload != spec.Workload || len(res.Cores) != cores {
		return fmt.Errorf("result is %s/%s on %d cores, want %s/%s on %d",
			res.Policy, res.Workload, len(res.Cores), spec.Policy, spec.Workload, cores)
	}
	return nil
}

// serviceLoad is a service workload: set-up starts the server and warms
// the pool (the hits' answers); the run is closed-loop traffic of one
// request kind.
type serviceLoad struct{ kind reqKind }

func (l serviceLoad) run(cfg runConfig, r *report) error {
	ctx := context.Background()
	gen := newRequests(l.kind, cfg.seed, jobInstr/cfg.shrink, jobWarmup/cfg.shrink, cfg.maxRequests)
	pool := gen.poolSpecs()
	repeats := setupRepeats
	if cfg.trace {
		repeats = 1
	}
	host := newHostClock()
	var setup []float64
	var svc *service
	for i := 0; i < repeats; i++ {
		if svc != nil {
			if err := svc.stop(); err != nil {
				return err
			}
		}
		runtime.GC()
		start := time.Now()
		var err error
		if svc, err = startService(ctx, pool); err != nil {
			return err
		}
		setup = append(setup, time.Since(start).Seconds())
		for k := 0; k < serviceHostSamples; k++ {
			host.sample()
		}
	}
	budget := cfg.seconds
	if cfg.trace {
		budget /= 2
	}
	gauge := func() (float64, error) { return host.sample(), nil }
	var null *loopback
	if l.kind == kindHit {
		var err error
		if null, err = serveNull(); err != nil {
			return errors.Join(err, svc.stop())
		}
		gauge = hitGauge(ctx, null)
	}
	spans := svc.traffic(ctx, gen.next, gauge, trafficDeadline(budget, cfg.maxRequests), r)
	if null != nil {
		if err := null.stop(ctx); err != nil {
			return errors.Join(err, svc.stop())
		}
	}
	if len(spans) == 0 {
		return errors.Join(errors.New("no request was answered"), svc.stop())
	}
	if cfg.trace {
		return l.traced(ctx, gen, svc, spans, budget, cfg.minRuns, r)
	}
	if err := svc.stop(); err != nil {
		return err
	}
	for k := 0; k < serviceHostSamples; k++ {
		host.sample()
	}
	var lat, factors []float64
	for _, sp := range balanced(spans) {
		lat = append(lat, sp.total.Seconds()*1e3/sp.factor)
		factors = append(factors, sp.factor)
	}
	h := host.factor()
	r.note("host_factor", "%.6g (median; each round trip is divided by its gauge's factor, median %.6g)", h, median(factors))
	r.add("setup_s", median(setup)/h, "s", len(setup))
	r.add("latency_ms_p50", quantile(lat, 0.5), "ms", len(lat))
	r.add("latency_ms_p80", quantile(lat, 0.8), "ms", len(lat))
	return nil
}

// traced is the rest of a service workload's traced run: the probe,
// the server and dse layers of the traffic and the probe, then the
// simulator layers of the representative job for budget seconds.
func (l serviceLoad) traced(ctx context.Context, gen *requests, svc *service, spans []span, budget float64, minRuns int, r *report) error {
	rep := slices.IndexFunc(svc.specs, func(s server.JobSpec) bool {
		return s.Policy == repDesign && s.Workload == repWorkload
	})
	probe, job := svc.probe(ctx, rep, gen, r)
	err := serviceLayers(append(spans, probe...), svc, job, r)
	if err = errors.Join(err, svc.stop()); err != nil {
		return err
	}
	norm, err := job.Normalize()
	if err != nil {
		return err
	}
	o, err := norm.SimOptions()
	if err != nil {
		return err
	}
	o.Threads = 1
	ref, _, seqRuns, err := reference(o, norm.Instructions)
	if err != nil {
		return err
	}
	o.Threads = simThreads
	return layerSplit(o, norm.Instructions, ref, seqRuns, minRuns, budget, r)
}

// probe sends the server, from one client, one request of every kind
// around pool entry i: the entry's job at a fresh seed, probeHits
// repeats of the entry, a sweep of every design on the entry's workload
// at a fresh seed, and that sweep again under other objectives. It
// returns the answered requests and the fresh job's spec.
func (s *service) probe(ctx context.Context, i int, gen *requests, r *report) ([]span, server.JobSpec) {
	pooled := s.specs[i]
	fresh := pooled
	fresh.Seed = gen.freshSeed()
	reqs := []request{{kind: kindMiss, spec: fresh}}
	for k := 0; k < probeHits; k++ {
		reqs = append(reqs, request{kind: kindHit, group: i, spec: pooled})
	}
	wls, seed, instr, warmup := []string{pooled.Workload}, gen.freshSeed(), pooled.Instructions, pooled.Warmup
	reqs = append(reqs,
		request{kind: kindSweep, spec: sweepSpec(wls, seed, instr, warmup, nil)},
		request{kind: kindWarmSweep, spec: sweepSpec(wls, seed, instr, warmup, dse.DefaultObjectives()[:2])})
	next := func() (request, bool) {
		if len(reqs) == 0 {
			return request{}, false
		}
		req := reqs[0]
		reqs = reqs[1:]
		return req, true
	}
	return s.traffic(ctx, next, nil, time.Now().Add(time.Hour), r), fresh
}

// balanced returns the spans with every group equally represented: each
// group's first k answers, k the count of the least answered group.
// Groups differ several-fold in run time, so the uneven tail of the
// permutation walk would otherwise move the percentiles with the seed.
// With some group unanswered it returns every span.
func balanced(spans []span) []span {
	count := make([]int, groups(spans[0].kind))
	for _, sp := range spans {
		count[sp.group]++
	}
	k := slices.Min(count)
	if k == 0 {
		return spans
	}
	taken := make([]int, len(count))
	var out []span
	for _, sp := range spans {
		if taken[sp.group] < k {
			taken[sp.group]++
			out = append(out, sp)
		}
	}
	return out
}

// trafficDeadline ends the traffic budget seconds from now, or never
// when the request count is capped instead.
func trafficDeadline(budget float64, maxRequests int) time.Time {
	if maxRequests > 0 {
		return time.Now().Add(time.Hour)
	}
	return time.Now().Add(time.Duration(budget * float64(time.Second)))
}

// serviceProbe is the service half of a sim workload's traced run: the
// probe around the workload's own job, against a fresh server whose
// pool is that job.
func serviceProbe(spec server.JobSpec, seed uint64, r *report) error {
	ctx := context.Background()
	gen := newRequests(kindMiss, seed, spec.Instructions, spec.Warmup, 0)
	spec.Seed = gen.poolSeed
	svc, err := startService(ctx, []server.JobSpec{spec})
	if err != nil {
		return err
	}
	spans, job := svc.probe(ctx, 0, gen, r)
	return errors.Join(serviceLayers(spans, svc, job, r), svc.stop())
}

// byKind selects the spans of one request kind.
func byKind(spans []span, k reqKind) []span {
	var out []span
	for _, sp := range spans {
		if sp.kind == k {
			out = append(out, sp)
		}
	}
	return out
}

// ms maps spans to one of their durations in milliseconds.
func ms(spans []span, d func(span) time.Duration) []float64 {
	out := make([]float64, len(spans))
	for i, sp := range spans {
		out[i] = float64(d(sp)) / 1e6
	}
	return out
}

// serviceLayers reports the server and dse layer metrics of the spans;
// job is a fresh job's spec, timed for its content addressing.
func serviceLayers(spans []span, svc *service, job server.JobSpec, r *report) error {
	misses, hits := byKind(spans, kindMiss), byKind(spans, kindHit)
	sweeps, warm := byKind(spans, kindSweep), byKind(spans, kindWarmSweep)
	if len(misses) == 0 || len(hits) == 0 || len(sweeps) == 0 || len(warm) == 0 {
		return fmt.Errorf("traced traffic answered %d fresh jobs, %d repeats, %d sweeps and %d warm sweeps; each needs one",
			len(misses), len(hits), len(sweeps), len(warm))
	}
	var polls, sizes []float64
	for _, sp := range slices.Concat(misses, sweeps, warm) {
		polls = append(polls, float64(sp.polls))
	}
	for _, sp := range misses {
		sizes = append(sizes, float64(sp.resultBytes)/1024)
	}
	total := func(sp span) time.Duration { return sp.total }
	queue := ms(misses, func(sp span) time.Duration { return sp.queueWait })
	hitMs := ms(hits, total)
	r.add("server.submit_ms_p50", median(ms(spans, func(sp span) time.Duration { return sp.submit })), "ms", len(spans))
	r.add("server.status_polls_per_job", sum(polls)/float64(len(polls)), "count", len(polls))
	r.add("server.queue_wait_ms_p50", quantile(queue, 0.5), "ms", len(queue))
	r.add("server.queue_wait_ms_p90", quantile(queue, 0.9), "ms", len(queue))
	r.add("server.run_ms_p50", median(ms(misses, func(sp span) time.Duration { return sp.run })), "ms", len(misses))
	r.add("server.result_fetch_ms_p50", median(ms(spans, func(sp span) time.Duration { return sp.fetch })), "ms", len(spans))
	r.add("server.result_kb_p50", median(sizes), "KB", len(sizes))
	r.add("server.hit_ms_p50", quantile(hitMs, 0.5), "ms", len(hitMs))
	r.add("server.hit_ms_p90", quantile(hitMs, 0.9), "ms", len(hitMs))
	r.add("server.cache_hit_ratio", svc.srv.Metrics().CacheHitRate(), "frac", len(spans))

	// The content-addressing cost of one job, the expansion of a
	// dse-sweep sweep, and the front extraction of the last sweep.
	norm, err := job.Normalize()
	if err != nil {
		return err
	}
	last := sweeps[len(sweeps)-1].sweep
	spec := sweepSpec(jobWorkloads, job.Seed, job.Instructions, job.Warmup, nil).DSE
	if _, err := spec.Expand(); err != nil {
		return err
	}
	// The calls below were checked above; they cannot fail now.
	r.add("server.normalize_us", perCallUs(func() { _, _ = job.Normalize() }), "us", perCallBatches)
	r.add("server.hash_us", perCallUs(func() { _ = norm.Hash() }), "us", perCallBatches)
	r.add("dse.sweep_ms_p50", median(ms(sweeps, total)), "ms", len(sweeps))
	r.add("dse.warm_sweep_ms_p50", median(ms(warm, total)), "ms", len(warm))
	r.add("dse.expand_us", perCallUs(func() { _, _ = spec.Expand() }), "us", perCallBatches)
	r.add("dse.front_us", perCallUs(func() { dse.Front(last.Points, last.Objectives) }), "us", perCallBatches)
	return nil
}

// perCallBatches is how many timed batches perCallUs takes the median of.
const perCallBatches = 7

// perCallUs times fn in batches and returns the median microseconds per
// call.
func perCallUs(fn func()) float64 {
	const calls = 500
	per := make([]float64, perCallBatches)
	for b := range per {
		start := time.Now()
		for i := 0; i < calls; i++ {
			fn()
		}
		per[b] = float64(time.Since(start)) / calls / 1e3
	}
	return median(per)
}
