package server

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"chameleon/internal/sim"
)

// JobState is the lifecycle state of a job.
type JobState string

// Job lifecycle states. Queued jobs wait for a worker; running jobs
// own one; done/failed/canceled are terminal. Remote exists only on
// clustered servers: the job runs on a peer (its ring owner, or an idle
// node it was handed to) and mirrors that peer's copy here.
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateRemote   JobState = "remote"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Progress is the live view of a running job, fed by timeline epochs
// (sim jobs) or completed cells (matrix jobs).
type Progress struct {
	// Sim jobs: the latest timeline sample.
	Epochs            int     `json:"epochs,omitempty"`
	Cycle             uint64  `json:"cycle,omitempty"`
	StackedHitRate    float64 `json:"stacked_hit_rate,omitempty"`
	CacheModeFraction float64 `json:"cache_mode_fraction,omitempty"`
	// Matrix and DSE jobs: completed cells out of the total.
	DoneCells  int `json:"done_cells,omitempty"`
	TotalCells int `json:"total_cells,omitempty"`
	// Cells served from the content-addressed cache (matrix and DSE
	// jobs) and cells skipped by dominance pruning (DSE jobs only);
	// both are subsets of the total, and cached cells also count as
	// done.
	CachedCells int `json:"cached_cells,omitempty"`
	PrunedCells int `json:"pruned_cells,omitempty"`
}

// JobStatus is the wire-format snapshot of a job. Node names the
// cluster node executing (or that executed) the job; for remote
// mirrors, NodeAddr and RemoteID let a cluster-aware client poll the
// executing node directly instead of through the forwarding proxy.
type JobStatus struct {
	ID          string     `json:"id"`
	Hash        string     `json:"hash"`
	State       JobState   `json:"state"`
	Cached      bool       `json:"cached,omitempty"`
	Node        string     `json:"node,omitempty"`
	NodeAddr    string     `json:"node_addr,omitempty"`
	RemoteID    string     `json:"remote_id,omitempty"`
	Spec        JobSpec    `json:"spec"`
	Progress    Progress   `json:"progress,omitempty"`
	Error       string     `json:"error,omitempty"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
}

// Job is one unit of work owned by the server. All mutable fields are
// guarded by mu; Done is closed exactly once when the job reaches a
// terminal state.
type Job struct {
	ID   string
	Hash string
	Spec JobSpec // normalized

	store *Store // told when the job ends; nil for a job outside a store

	mu          sync.Mutex
	state       JobState
	cached      bool
	pooled      bool // an entry waits in the worker pool's queue (Server.enqueue)
	progress    Progress
	result      string // JSON, set in StateDone; shared with the result cache
	err         string
	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time
	cancel      context.CancelFunc

	// Cluster bookkeeping. node labels the executing node; for remote
	// mirrors nodeAddr/remoteID reference the peer's job.
	node     string
	nodeAddr string
	remoteID string

	done chan struct{}
}

// newJob builds a queued job; hash is spec.Hash(), which every caller
// already holds.
func newJob(id string, spec JobSpec, hash string, now time.Time) *Job {
	return &Job{
		ID: id, Hash: hash, Spec: spec,
		state: StateQueued, submittedAt: now,
		done: make(chan struct{}),
	}
}

// Status snapshots the job for the API.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.ID, Hash: j.Hash, State: j.state, Cached: j.cached,
		Node: j.node, NodeAddr: j.nodeAddr, RemoteID: j.remoteID,
		Spec: j.Spec, Progress: j.progress, Error: j.err,
		SubmittedAt: j.submittedAt,
	}
	if !j.startedAt.IsZero() {
		t := j.startedAt
		st.StartedAt = &t
	}
	if !j.finishedAt.IsZero() {
		t := j.finishedAt
		st.FinishedAt = &t
	}
	return st
}

// Result returns a copy of the job's result JSON, or an error
// describing why it is not available.
func (j *Job) Result() ([]byte, error) {
	r, err := j.resultString()
	if err != nil {
		return nil, err
	}
	return []byte(r), nil
}

// resultString returns the job's result JSON as the string it shares
// with the result cache, or an error describing why it is not
// available.
func (j *Job) resultString() (string, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateDone:
		return j.result, nil
	case StateFailed:
		return "", fmt.Errorf("job %s failed: %s", j.ID, j.err)
	case StateCanceled:
		return "", fmt.Errorf("job %s was canceled", j.ID)
	default:
		return "", fmt.Errorf("job %s is %s; result not ready", j.ID, j.state)
	}
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// tryStart transitions queued → running; it fails if the job was
// canceled while waiting in the queue. The cancel func tears down the
// job's run context.
func (j *Job) tryStart(now time.Time, cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.pooled = false // the worker calling tryStart took the entry
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.startedAt = now
	j.cancel = cancel
	return true
}

// finish moves the job to a terminal state and bumps count (if
// non-nil) before Done closes. It is a no-op if the job is already
// terminal (e.g. canceled racing completion).
func (j *Job) finish(state JobState, result string, err error, now time.Time, count *expvar.Int) bool {
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.end(state, result, msg, false, now, count)
	return true
}

// Cancel cancels a queued or running job. Queued (and remote) jobs go
// terminal immediately; running jobs get their context canceled and go
// terminal when the simulation loop notices. It reports whether the
// call had any effect.
func (j *Job) Cancel(now time.Time) bool { return j.cancelCounted(now, nil) }

// cancelCounted is Cancel that also bumps count (if non-nil) when it
// ends the job, before Done closes. A running job is counted by the
// worker that ends it.
func (j *Job) cancelCounted(now time.Time, count *expvar.Int) bool {
	j.mu.Lock()
	switch j.state {
	case StateQueued, StateRemote:
		j.end(StateCanceled, "", "canceled while "+string(j.state), false, now, count)
		j.mu.Unlock()
		return true
	}
	if j.state == StateRunning && j.cancel != nil {
		cancel := j.cancel
		j.cancel = nil
		j.mu.Unlock()
		cancel()
		return true
	}
	j.mu.Unlock()
	return false
}

// setSimProgress records a timeline sample.
func (j *Job) setSimProgress(p sim.TimelinePoint) {
	j.mu.Lock()
	j.progress.Epochs++
	j.progress.Cycle = p.Cycle
	j.progress.StackedHitRate = p.StackedHitRate
	j.progress.CacheModeFraction = p.CacheModeFraction
	j.mu.Unlock()
}

// setCellProgress records a sweep's or a matrix's live cell accounting.
func (j *Job) setCellProgress(done, cached, pruned, total int) {
	j.mu.Lock()
	j.progress.DoneCells = done
	j.progress.CachedCells = cached
	j.progress.PrunedCells = pruned
	j.progress.TotalCells = total
	j.mu.Unlock()
}

// markCached fills a freshly submitted job from a cache hit: it is
// born terminal, sharing the cache's result string.
func (j *Job) markCached(result string, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.end(StateDone, result, "", true, now, nil)
}

// State returns the job's current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// setNode labels the job with the executing cluster node.
func (j *Job) setNode(id string) {
	if id == "" {
		return
	}
	j.mu.Lock()
	j.node = id
	j.mu.Unlock()
}

// markRemote turns a queued job into a mirror of remoteID executing on
// the named node. It is the CAS that keeps execution exactly-once: it
// fails once the job left the queued state, so the local worker
// (tryStart), a second hand-off and a canceling client race on the
// same mutex and exactly one of them wins. A hand-off passes remoteID
// "" and sets it with setRemoteID once the node has answered.
func (j *Job) markRemote(nodeID, addr, remoteID string, now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRemote
	j.node, j.nodeAddr, j.remoteID = nodeID, addr, remoteID
	j.startedAt = now
	return true
}

// remoteRef returns the mirror's owner reference (valid while the
// job is in StateRemote).
func (j *Job) remoteRef() (nodeID, addr, remoteID string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.node, j.nodeAddr, j.remoteID
}

// setRemoteID records the peer's job ID on a handed-off mirror that
// still waits for it on node. It fails once the mirror left that state
// (canceled, or reverted and perhaps handed on), so the caller can stop
// the peer's now orphaned copy.
func (j *Job) setRemoteID(node, remoteID string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRemote || j.node != node || j.remoteID != "" {
		return false
	}
	j.remoteID = remoteID
	return true
}

// revertToQueued returns a job mirrored from node to the local queue
// after that node died or refused it; a job that has moved on since
// (ended, or reverted and handed to another node) stays as it is. It
// reports whether the job was reverted and whether the caller must
// submit it to the worker pool: a handed-off job whose first entry is
// still waiting in the queue is run by that entry, so it must not take
// a second slot.
func (j *Job) revertToQueued(node string) (reverted, submit bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRemote || j.node != node {
		return false, false
	}
	submit = !j.pooled
	j.pooled = true
	j.state = StateQueued
	j.node, j.nodeAddr, j.remoteID = "", "", ""
	j.startedAt = time.Time{}
	j.progress = Progress{}
	return true, submit
}

// setPooled records that an entry of the job is about to wait in the
// worker pool's queue.
func (j *Job) setPooled() {
	j.mu.Lock()
	j.pooled = true
	j.mu.Unlock()
}

// finishFromPeer moves the job to a terminal state with the error text
// and cached flag reported by the node that executed it (finish is its
// local form). It acts only while the job is still a remote mirror: a
// late report for a job that was re-enqueued and started here since is
// dropped. count (if non-nil) is bumped before Done closes.
func (j *Job) finishFromPeer(state JobState, result, errstr string, cached bool, now time.Time, count *expvar.Int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRemote {
		return false
	}
	j.end(state, result, errstr, cached, now, count)
	return true
}

// end moves the job to a terminal state; j.mu must be held. It bumps
// count (if non-nil) and enters the job in its store's retention
// order before it closes Done, so whoever wakes on Done sees both.
func (j *Job) end(state JobState, result, errstr string, cached bool, now time.Time, count *expvar.Int) {
	j.state = state
	j.result = result
	j.err = errstr
	j.cached = cached
	j.finishedAt = now
	j.cancel = nil
	if count != nil {
		count.Add(1)
	}
	if j.store != nil {
		j.store.ended(j.ID, now)
	}
	close(j.done)
}

// setProgress overwrites the progress snapshot (remote mirrors).
func (j *Job) setProgress(p Progress) {
	j.mu.Lock()
	j.progress = p
	j.mu.Unlock()
}

// keepEnded is how many of the most recently ended jobs the store
// always keeps. An older ended job is also kept until it ended more
// than maxStatusWait ago, so a held status read, a client's result
// fetch or a mirror's result GET that follows a job's end never finds
// it gone. The job's result outlives it in the result cache.
const keepEnded = 1024

// Store is the in-memory job registry. It forgets ended jobs: a
// terminal job is dropped once keepEnded newer jobs have ended and it
// ended more than maxStatusWait ago. Queued, running and remote jobs
// are never dropped.
type Store struct {
	mu     sync.Mutex
	prefix string // cluster: node-scoped ID prefix, "" standalone
	jobs   map[string]*Job
	// ids is the submission order, for listing. Dropped jobs' IDs stay
	// in it until they are half of it.
	ids []string
	// endOrder holds the stored terminal jobs in the order they ended,
	// oldest first.
	endOrder []endedJob
	expired  int64 // jobs dropped so far
	seq      atomic.Uint64
}

// endedJob is one terminal job in the store's retention order.
type endedJob struct {
	id string
	at time.Time // when it ended
}

// NewStore returns an empty registry.
func NewStore() *Store {
	return &Store{jobs: make(map[string]*Job)}
}

// SetIDPrefix namespaces job IDs (e.g. "node1-"). Every store counts
// from 1, so clustered nodes must prefix or IDs collide across the
// cluster. Call before the first NewJob.
func (s *Store) SetIDPrefix(p string) {
	s.mu.Lock()
	s.prefix = p
	s.mu.Unlock()
}

// NewJob registers a new queued job for the spec, whose hash the
// caller already holds, and first drops the ended jobs that have
// expired by now.
func (s *Store) NewJob(spec JobSpec, hash string, now time.Time) *Job {
	s.mu.Lock()
	s.expire(now)
	id := fmt.Sprintf("%sj%08x", s.prefix, s.seq.Add(1))
	j := newJob(id, spec, hash, now)
	j.store = s
	s.jobs[id] = j
	s.ids = append(s.ids, id)
	s.mu.Unlock()
	return j
}

// ended enters a job that just ended at `at` in the retention order.
func (s *Store) ended(id string, at time.Time) {
	s.mu.Lock()
	s.endOrder = append(s.endOrder, endedJob{id, at})
	s.mu.Unlock()
}

// expire drops the oldest ended jobs while more than keepEnded have
// ended after them and they ended more than maxStatusWait before now.
// Each job enters endOrder once and leaves it once, so the work is
// O(1) amortized per job. s.mu must be held.
func (s *Store) expire(now time.Time) {
	n := 0
	for len(s.endOrder)-n > keepEnded && now.Sub(s.endOrder[n].at) > maxStatusWait {
		delete(s.jobs, s.endOrder[n].id)
		n++
	}
	if n == 0 {
		return
	}
	s.endOrder = s.endOrder[n:]
	s.expired += int64(n)
	if len(s.ids) > 2*len(s.jobs) {
		ids := make([]string, 0, len(s.jobs))
		for _, id := range s.ids {
			if _, ok := s.jobs[id]; ok {
				ids = append(ids, id)
			}
		}
		s.ids = ids
	}
}

// Stats returns how many jobs the store holds and how many it has
// dropped, in one lock.
func (s *Store) Stats() (stored int, expired int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs), s.expired
}

// Snapshot returns every stored job in submission order (live
// pointers, for cluster sweeps).
func (s *Store) Snapshot() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.jobs))
	for _, id := range s.ids {
		if j, ok := s.jobs[id]; ok {
			out = append(out, j)
		}
	}
	return out
}

// Get looks a job up by ID.
func (s *Store) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// List snapshots every job's status in submission order.
func (s *Store) List() []JobStatus {
	jobs := s.Snapshot()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// marshalResult encodes a result payload deterministically.
func marshalResult(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("server: encode result: %w", err)
	}
	return b, nil
}
