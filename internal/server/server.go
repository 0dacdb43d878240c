// Package server turns the chameleon simulator into a long-running
// simulation-as-a-service subsystem: an HTTP JSON API over a bounded
// worker pool with a FIFO job queue, per-job deadlines and context
// cancellation, a content-addressed result cache, and an expvar-based
// metrics surface. cmd/chamd is the binary that serves it.
package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"chameleon/internal/cluster"
	"chameleon/internal/experiments"
	"chameleon/internal/sim"
)

// Options configure a Server.
type Options struct {
	// Workers is the number of concurrent simulations (default
	// GOMAXPROCS; simulations are CPU-bound).
	Workers int
	// QueueDepth bounds the FIFO queue of jobs waiting for a worker
	// (default 256). A full queue rejects submissions with 503.
	QueueDepth int
	// DefaultTimeout bounds a job's run time when the spec sets none
	// (default 10 minutes).
	DefaultTimeout time.Duration
	// CacheEntries bounds the content-addressed result cache
	// (default 1024 results).
	CacheEntries int
	// CacheBytes bounds the result cache's total payload size
	// (default 256 MiB; < 0 disables the byte bound).
	CacheBytes int64

	// Cluster attaches the server to a chamd cluster (nil =
	// standalone). The server registers the peer protocol on its
	// Handler, routes submissions over the cluster's consistent-hash
	// ring, fills its result cache from peers, and, when idle, asks
	// loaded peers to hand it queued jobs. A job that runs on a peer,
	// forwarded to its ring owner or handed to an idle node, is
	// mirrored locally. The caller owns the cluster's gossip lifecycle
	// (Start/Stop).
	Cluster *cluster.Cluster
	// ClusterManual disables the background cluster loops; tests
	// drive sweepDead/stealOnce directly so membership and routing
	// transitions happen at deterministic points. Mirrors still follow
	// their peers' copies.
	ClusterManual bool
}

// Periods of the dead-node sweep (also a mirror's retry after a failed
// call to its owner) and of the work-stealing scan.
const (
	sweepInterval = 200 * time.Millisecond
	stealInterval = 500 * time.Millisecond
)

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 10 * time.Minute
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 1024
	}
	if o.CacheBytes == 0 {
		o.CacheBytes = 256 << 20
	}
	return o
}

// Server owns the job store, queue, cache and metrics. Create with
// New, expose over HTTP via Handler, stop with Shutdown.
type Server struct {
	opts    Options
	store   *Store
	cache   *resultCache
	metrics *Metrics
	pool    *pool
	cl      *cluster.Cluster // nil = standalone

	baseCtx    context.Context
	baseCancel context.CancelFunc
	// draining is canceled when Shutdown starts: intake stops, held
	// status reads return, and the cluster loops and mirrors stop.
	draining   context.Context
	beginDrain context.CancelFunc
	loopWG     sync.WaitGroup
}

// New builds and starts a server: its worker pool is live on return.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:    opts,
		store:   NewStore(),
		cache:   newResultCache(opts.CacheEntries, opts.CacheBytes),
		metrics: NewMetrics(),
		cl:      opts.Cluster,
	}
	s.metrics.SetCacheStats(s.cache.Stats)
	s.metrics.SetStoreStats(s.store.Stats)
	if s.cl != nil {
		s.store.SetIDPrefix(s.cl.Self().ID + "-")
		s.metrics.SetClusterInfo(s.clusterInfo)
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.draining, s.beginDrain = context.WithCancel(context.Background())
	s.pool = newPool(opts.Workers, opts.QueueDepth, s.runJob)
	if s.cl != nil {
		// Ring changes (a node died, a node joined) immediately sweep
		// for work that must move; the background loops catch the rest.
		s.cl.SetOnChange(func() {
			if s.draining.Err() == nil {
				s.sweepDead()
			}
		})
		if !opts.ClusterManual {
			s.startClusterLoops()
		}
	}
	return s
}

// clustered reports whether this server is part of a cluster.
func (s *Server) clustered() bool { return s.cl != nil }

// selfID returns the local cluster node ID ("" standalone).
func (s *Server) selfID() string {
	if s.cl == nil {
		return ""
	}
	return s.cl.Self().ID
}

// Metrics exposes the server's counters (also served on /debug/vars).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Submit validates, deduplicates and enqueues a job. A cache hit
// returns a job that is already done (Cached=true) without touching
// the queue. On a clustered server a submission whose content hash is
// owned by another node is transparently forwarded there (single
// hop), and a local cache miss consults the ring owner and one
// replica before simulating. Errors: spec validation, ErrQueueFull,
// ErrDraining.
func (s *Server) Submit(spec JobSpec) (*Job, error) { return s.submit(spec, "") }

// submit implements Submit. forwardedFrom carries the loop-guard
// header of a peer-forwarded request ("" = direct client submit);
// forwarded submissions are always served locally.
func (s *Server) submit(spec JobSpec, forwardedFrom string) (*Job, error) {
	norm, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	if s.draining.Err() != nil {
		return nil, ErrDraining
	}
	s.metrics.JobsSubmitted.Add(1)
	now := time.Now()
	hash := norm.Hash()
	if res, ok := s.cache.Load(hash); ok {
		s.metrics.CacheHits.Add(1)
		j := s.store.NewJob(norm, hash, now)
		j.setNode(s.selfID())
		j.markCached(res, now)
		return j, nil
	}
	s.metrics.CacheMisses.Add(1)
	if s.clustered() {
		owners, selfOwned := s.ringOwners(hash)
		// Route to the ring owner — single hop only (the loop guard
		// stops forward chains), and trace replays never leave the node
		// holding the trace file.
		if !selfOwned && forwardedFrom == "" && norm.TracePath == "" {
			if j, ok := s.forward(norm, hash, now, owners); ok {
				return j, nil
			}
			// Owner unreachable: serve locally — a dead owner costs the
			// cluster capacity, never a job.
		}
		if b, ok := s.peerCacheGet(hash, owners); ok {
			s.metrics.PeerCacheHits.Add(1)
			res := s.cache.Put(hash, b)
			j := s.store.NewJob(norm, hash, now)
			j.setNode(s.selfID())
			j.markCached(res, now)
			return j, nil
		}
	}
	j := s.store.NewJob(norm, hash, now)
	j.setNode(s.selfID())
	if err := s.enqueue(j); err != nil {
		j.finish(StateFailed, "", err, time.Now(), &s.metrics.JobsFailed)
		return nil, err
	}
	return j, nil
}

// enqueue submits j to the worker pool and counts it queued. The job
// is marked pooled first, and stays so until a worker takes the entry
// (tryStart); a hand-off leaves the entry in place, so a hand-off
// reverted while it waits does not queue the job again (requeue).
func (s *Server) enqueue(j *Job) error {
	j.setPooled()
	if err := s.pool.Submit(j); err != nil {
		return err
	}
	s.metrics.JobsQueued.Add(1)
	return nil
}

// Job looks up a job by ID.
func (s *Server) Job(id string) (*Job, bool) { return s.store.Get(id) }

// Jobs lists every job's status in submission order.
func (s *Server) Jobs() []JobStatus { return s.store.List() }

// Cancel cancels a queued or running job by ID. Canceling a mirror
// also cancels, best effort, the peer's copy, so the remote execution
// stops burning a worker. The reference is read after the cancel: only
// a mirror carries a peer address, a canceled job keeps it, and a
// hand-off whose job ID arrives later cancels that copy itself.
func (s *Server) Cancel(id string) (bool, error) {
	j, ok := s.store.Get(id)
	if !ok {
		return false, fmt.Errorf("unknown or expired job %q", id)
	}
	canceled := j.cancelCounted(time.Now(), &s.metrics.JobsCanceled)
	if _, raddr, rid := j.remoteRef(); canceled && raddr != "" && rid != "" {
		go s.cancelRemote(raddr, rid)
	}
	return canceled, nil
}

// Shutdown stops intake and drains: queued jobs are canceled, running
// jobs are given until ctx's deadline to finish, then their run
// contexts are cut. Always waits for every worker (and any cluster
// loop) to exit.
func (s *Server) Shutdown(ctx context.Context) error {
	s.beginDrain()
	s.loopWG.Wait()
	s.pool.Close()
	done := make(chan struct{})
	go func() { s.pool.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-done
		return ctx.Err()
	}
}

// runJob executes one dequeued job on a worker goroutine. Whatever
// ends the job counts it, and the running gauge drops, before the
// job's Done closes.
func (s *Server) runJob(j *Job) {
	now := time.Now()
	s.metrics.JobsQueued.Add(-1)
	if s.draining.Err() != nil {
		// Drain mode: queued jobs are canceled, not started.
		j.cancelCounted(now, &s.metrics.JobsCanceled)
		return
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, j.Spec.Timeout(s.opts.DefaultTimeout))
	defer cancel()
	if !j.tryStart(now, cancel) {
		// Canceled while waiting in the queue (Server.Cancel counted
		// it), or handed to an idle peer, which this node now mirrors.
		return
	}
	s.metrics.ObserveQueueWait(now.Sub(j.Status().SubmittedAt))
	s.metrics.JobsRunning.Add(1)

	var payload any
	var err error
	switch j.Spec.Kind {
	case KindSim:
		payload, err = s.runSim(ctx, j)
	case KindMatrix:
		payload, err = s.runMatrix(ctx, j)
	case KindDSE:
		payload, err = s.runDSE(ctx, j)
	default:
		err = fmt.Errorf("unknown job kind %q", j.Spec.Kind)
	}
	var b []byte
	if err == nil {
		b, err = marshalResult(payload)
	}
	fin := time.Now()
	s.metrics.JobsRunning.Add(-1)
	if err != nil {
		state, count := StateFailed, &s.metrics.JobsFailed
		if errors.Is(err, context.Canceled) {
			state, count = StateCanceled, &s.metrics.JobsCanceled
		}
		if errors.Is(err, context.DeadlineExceeded) {
			err = fmt.Errorf("deadline exceeded after %s: %w",
				j.Spec.Timeout(s.opts.DefaultTimeout), err)
		}
		j.finish(state, "", err, fin, count)
		return
	}
	j.finish(StateDone, s.cache.Put(j.Hash, b), nil, fin, &s.metrics.JobsDone)
	if s.clustered() {
		// Replicate to the ring owner and replica so a node death
		// loses capacity, not results.
		go s.writeBackResult(j.Hash, b)
	}
}

// runSim executes a single-simulation job.
func (s *Server) runSim(ctx context.Context, j *Job) (any, error) {
	res, err := j.Spec.Cell().Run(ctx, j.setSimProgress)
	if err != nil {
		return nil, err
	}
	s.metrics.ObserveRun(res)
	return res, nil
}

// matrixPayload is the wire shape of a matrix job's result.
type matrixPayload struct {
	// Results[policy][workload], policies keyed by wire name.
	Results map[string]map[string]*sim.Result `json:"results"`
}

// cellOptions are the experiments.Options a matrix or dse job runs its
// cells with: the job's spec, each cell resolved through evalCell (so
// cells are cached, sharded and shared with sim jobs), and the job's
// cell progress recorded as cells resolve. Cells run inside the job's
// worker slot, never through the local pool, so a job cannot deadlock
// the pool that runs it.
func (s *Server) cellOptions(j *Job) experiments.Options {
	spec := j.Spec
	o := experiments.Options{
		Scale:        spec.Scale,
		Instructions: spec.Instructions,
		Warmup:       spec.Warmup,
		Seed:         spec.Seed,
		Workloads:    spec.Workloads,
		Parallelism:  spec.Parallelism,
		CacheLevels:  spec.CacheLevels,
		MemoryTiers:  spec.MemoryTiers,
		Progress:     j.setCellProgress,
		Simulate:     s.evalCell,
	}
	for _, p := range spec.Policies {
		o.Policies = append(o.Policies, sim.PolicyKind(p))
	}
	return o
}

// runMatrix executes an evaluation-matrix job.
func (s *Server) runMatrix(ctx context.Context, j *Job) (any, error) {
	m, err := experiments.RunMatrixContext(ctx, s.cellOptions(j))
	if err != nil {
		return nil, err
	}
	return matrixPayload{Results: m.ByName()}, nil
}

// runDSE executes a design-space sweep job. A normalized dse job
// carries every axis in its sweep, so of the job's shared fields only
// the budgets and parallelism apply.
func (s *Server) runDSE(ctx context.Context, j *Job) (any, error) {
	res, err := experiments.RunDSE(ctx, s.cellOptions(j), *j.Spec.DSE)
	if err != nil {
		return nil, err
	}
	s.metrics.DSECellsPruned.Add(int64(res.Pruned))
	return res, nil
}
