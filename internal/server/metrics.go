package server

import (
	"expvar"
	"fmt"
	"net/http"
	"sync"
	"time"

	"chameleon/internal/sim"
	"chameleon/internal/stats"
)

// queueWaitBuckets are the upper bounds (milliseconds) of the queue
// wait histogram; the final bucket is unbounded.
var queueWaitBuckets = []int64{1, 10, 100, 1_000, 10_000}

// Metrics aggregates the server's counters. All fields are
// expvar-native so the whole struct publishes as one expvar.Map on
// /debug/vars, but nothing is registered in the process-global expvar
// registry (tests run many servers in one process); cmd/chamd calls
// PublishExpvar once to expose the serving instance globally.
type Metrics struct {
	JobsSubmitted expvar.Int // total POST /v1/jobs accepted
	JobsQueued    expvar.Int // gauge: jobs in StateQueued, waiting for a worker
	JobsRunning   expvar.Int // gauge: currently executing
	JobsDone      expvar.Int // total simulated to completion locally
	JobsFailed    expvar.Int // total failed (error or deadline)
	JobsCanceled  expvar.Int // total canceled (queued or mid-run)
	CacheHits     expvar.Int
	CacheMisses   expvar.Int
	SimCycles     expvar.Int // simulated cycles completed, all jobs
	// SimRuns counts completed simulations: sim jobs, inline DSE cells
	// and matrix cells alike.
	SimRuns expvar.Int

	// DSE sweep counters: cells actually simulated locally, cells
	// served from the content-addressed cache (local or peer), cells
	// skipped by dominance pruning, and cells executed on a ring peer.
	DSECellsSimulated expvar.Int
	DSECellsCached    expvar.Int
	DSECellsPruned    expvar.Int
	DSECellsRemote    expvar.Int

	// Cluster counters (zero on standalone servers).
	JobsForwarded  expvar.Int // submits proxied to the ring owner
	JobsRemoteDone expvar.Int // local jobs completed by a peer's execution
	JobsStolen     expvar.Int // queued jobs peers handed this node when it asked
	JobsStolenAway expvar.Int // queued jobs this node handed to idle peers
	JobsReenqueued expvar.Int // jobs re-queued locally after a node died
	PeerCacheHits  expvar.Int // local misses served from a peer's cache
	PeerCacheFills expvar.Int // peer-pushed results accepted into the cache

	queueWait struct {
		sync.Mutex
		counts  [6]int64 // one per bucket + overflow
		totalMS int64
		samples int64
	}

	// sim accumulates the unified stats.Snapshot of every completed
	// simulation (see sim.Result.Snapshot), exposed as the "sim" expvar
	// entry.
	sim struct {
		sync.Mutex
		totals stats.Snapshot
		runs   int64
	}

	start time.Time
	once  sync.Once
	vars  *expvar.Map

	// cacheStats / storeStats / clusterInfo are optional live views
	// wired by the server before the first Vars call.
	cacheStats  func() (entries int, bytes int64)
	storeStats  func() (stored int, expired int64)
	clusterInfo func() any
}

// SetCacheStats wires the result cache's live size into the expvar
// document (cache_entries / cache_bytes). Call before the first Vars.
func (m *Metrics) SetCacheStats(fn func() (entries int, bytes int64)) { m.cacheStats = fn }

// SetStoreStats wires the job store's size and its count of dropped
// ended jobs into the expvar document (jobs_stored / jobs_expired).
// Call before the first Vars.
func (m *Metrics) SetStoreStats(fn func() (stored int, expired int64)) { m.storeStats = fn }

// SetClusterInfo wires a live cluster summary into the expvar
// document's "cluster" key. Call before the first Vars.
func (m *Metrics) SetClusterInfo(fn func() any) { m.clusterInfo = fn }

// NewMetrics returns a zeroed metrics set anchored at now.
func NewMetrics() *Metrics {
	return &Metrics{start: time.Now()}
}

// ObserveRun records one completed simulation: the run itself, its
// simulated cycles and its unified snapshot. Every path that runs a
// simulation reports through here.
func (m *Metrics) ObserveRun(r *sim.Result) {
	m.SimRuns.Add(1)
	m.SimCycles.Add(int64(r.MaxCycles))
	m.ObserveSim(r)
}

// ObserveQueueWait records one job's time-to-first-worker.
func (m *Metrics) ObserveQueueWait(d time.Duration) {
	ms := d.Milliseconds()
	q := &m.queueWait
	q.Lock()
	defer q.Unlock()
	i := 0
	for ; i < len(queueWaitBuckets); i++ {
		if ms <= queueWaitBuckets[i] {
			break
		}
	}
	q.counts[i]++
	q.totalMS += ms
	q.samples++
}

// ObserveSim accumulates one completed simulation's unified snapshot
// into the server-lifetime totals. Any stats.Source works — the server
// does not know (or care) which counters a design exports.
func (m *Metrics) ObserveSim(src stats.Source) {
	snap := src.Snapshot()
	s := &m.sim
	s.Lock()
	defer s.Unlock()
	if s.totals == nil {
		s.totals = stats.Snapshot{}
	}
	s.totals.Add("", snap)
	s.runs++
}

// simSnapshot renders the accumulated simulation counters.
func (m *Metrics) simSnapshot() map[string]float64 {
	s := &m.sim
	s.Lock()
	defer s.Unlock()
	out := make(stats.Snapshot, len(s.totals)+1)
	out.Add("", s.totals)
	out["runs"] = float64(s.runs)
	return out
}

// CacheHitRate returns hits / (hits + misses), or 0 before the first
// lookup.
func (m *Metrics) CacheHitRate() float64 {
	h, ms := m.CacheHits.Value(), m.CacheMisses.Value()
	if h+ms == 0 {
		return 0
	}
	return float64(h) / float64(h+ms)
}

// CyclesPerSecond returns simulated cycles completed per wall-clock
// second since the server started.
func (m *Metrics) CyclesPerSecond() float64 {
	el := time.Since(m.start).Seconds()
	if el <= 0 {
		return 0
	}
	return float64(m.SimCycles.Value()) / el
}

// Vars assembles (once) the expvar.Map view of the metrics.
func (m *Metrics) Vars() *expvar.Map {
	m.once.Do(func() {
		mp := new(expvar.Map).Init()
		mp.Set("jobs_submitted", &m.JobsSubmitted)
		mp.Set("jobs_queued", &m.JobsQueued)
		mp.Set("jobs_running", &m.JobsRunning)
		mp.Set("jobs_done", &m.JobsDone)
		mp.Set("jobs_failed", &m.JobsFailed)
		mp.Set("jobs_canceled", &m.JobsCanceled)
		mp.Set("jobs_forwarded", &m.JobsForwarded)
		mp.Set("jobs_remote_done", &m.JobsRemoteDone)
		mp.Set("jobs_stolen", &m.JobsStolen)
		mp.Set("jobs_stolen_away", &m.JobsStolenAway)
		mp.Set("jobs_reenqueued", &m.JobsReenqueued)
		if m.storeStats != nil {
			mp.Set("jobs_stored", expvar.Func(func() any { n, _ := m.storeStats(); return n }))
			mp.Set("jobs_expired", expvar.Func(func() any { _, n := m.storeStats(); return n }))
		}
		mp.Set("cache_hits", &m.CacheHits)
		mp.Set("cache_misses", &m.CacheMisses)
		mp.Set("cache_hit_rate", expvar.Func(func() any { return m.CacheHitRate() }))
		mp.Set("peer_cache_hits", &m.PeerCacheHits)
		mp.Set("peer_cache_fills", &m.PeerCacheFills)
		if m.cacheStats != nil {
			mp.Set("cache_entries", expvar.Func(func() any { e, _ := m.cacheStats(); return e }))
			mp.Set("cache_bytes", expvar.Func(func() any { _, b := m.cacheStats(); return b }))
		}
		if m.clusterInfo != nil {
			mp.Set("cluster", expvar.Func(m.clusterInfo))
		}
		mp.Set("dse_cells_simulated", &m.DSECellsSimulated)
		mp.Set("dse_cells_cached", &m.DSECellsCached)
		mp.Set("dse_cells_pruned", &m.DSECellsPruned)
		mp.Set("dse_cells_remote", &m.DSECellsRemote)
		mp.Set("sim_runs_total", &m.SimRuns)
		mp.Set("sim_cycles_total", &m.SimCycles)
		mp.Set("sim_cycles_per_sec", expvar.Func(func() any { return m.CyclesPerSecond() }))
		mp.Set("uptime_seconds", expvar.Func(func() any {
			return time.Since(m.start).Seconds()
		}))
		mp.Set("queue_wait_ms", expvar.Func(func() any { return m.queueWaitSnapshot() }))
		mp.Set("sim", expvar.Func(func() any { return m.simSnapshot() }))
		m.vars = mp
	})
	return m.vars
}

// queueWaitSnapshot renders the histogram as a JSON-friendly map.
func (m *Metrics) queueWaitSnapshot() map[string]int64 {
	q := &m.queueWait
	q.Lock()
	defer q.Unlock()
	out := make(map[string]int64, len(q.counts)+2)
	for i, b := range queueWaitBuckets {
		out[fmt.Sprintf("le_%d", b)] = q.counts[i]
	}
	out["inf"] = q.counts[len(queueWaitBuckets)]
	out["count"] = q.samples
	out["sum_ms"] = q.totalMS
	return out
}

// ServeHTTP serves the metrics as a /debug/vars-style JSON document.
func (m *Metrics) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	fmt.Fprintf(w, "{\"chamd\": %s}\n", m.Vars().String())
}

var publishOnce sync.Once

// PublishExpvar registers the metrics in the process-global expvar
// registry under "chamd". Safe to call once per process; later calls
// (or calls for other Metrics instances) are no-ops, because expvar
// panics on duplicate names.
func (m *Metrics) PublishExpvar() {
	publishOnce.Do(func() { expvar.Publish("chamd", m.Vars()) })
}
