package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"chameleon/internal/cluster"
)

// replication is how many ring nodes hold each result: the owner plus
// one replica, so any single node death keeps every cached result
// reachable.
const replication = 2

// peerCallTimeout bounds one peer HTTP round-trip (status reads,
// cache lookups, claims). Forwards share it: a forward that cannot
// reach the owner quickly falls back to running locally.
const peerCallTimeout = 5 * time.Second

// --- routing: run a job on its ring owner ------------------------------

// ringOwners returns hash's ring owner and replica, and whether this
// node is one of them.
func (s *Server) ringOwners(hash string) ([]cluster.Node, bool) {
	owners := s.cl.Owners(hash, replication)
	for _, o := range owners {
		if o.ID == s.selfID() {
			return owners, true
		}
	}
	return owners, false
}

// eachPeerOwner calls call on each live ring owner other than this
// node, in ring order and under peerCallTimeout, until call reports
// done. An owner whose call fails is reported to the failure detector.
func (s *Server) eachPeerOwner(ctx context.Context, owners []cluster.Node, call func(context.Context, cluster.Node) (done bool, err error)) {
	for _, o := range owners {
		if o.ID == s.selfID() || !s.cl.Alive(o.ID) {
			continue
		}
		cctx, cancel := context.WithTimeout(ctx, peerCallTimeout)
		done, err := call(cctx, o)
		cancel()
		if err != nil {
			s.cl.Membership().MarkFailed(o.ID)
		} else if done {
			return
		}
	}
}

// submitToOwner posts a normalized spec (a JobSpec, or a Cell as the
// sim job it spells) to the first reachable ring owner other than this
// node, with the single-hop loop guard so the owner runs it itself.
// ok=false means no owner took the job.
func (s *Server) submitToOwner(ctx context.Context, spec any, owners []cluster.Node) (owner cluster.Node, st JobStatus, ok bool) {
	s.eachPeerOwner(ctx, owners, func(ctx context.Context, o cluster.Node) (bool, error) {
		err := cluster.DoJSONHeader(ctx, s.cl.HTTPClient(), http.MethodPost,
			o.Addr+"/v1/jobs", map[string]string{cluster.ForwardedHeader: s.selfID()}, spec, &st)
		owner, ok = o, err == nil
		return ok, err
	})
	return owner, st, ok
}

// awaitPeerJob follows job st.ID on the peer at addr until it ends.
// Each round is one status read that the peer holds open until the
// job ends, for half the peer client's timeout; progress (if set) sees
// every non-terminal status. It returns the latest status, the result
// bytes of a done job, and the first error.
func (s *Server) awaitPeerJob(ctx context.Context, addr string, st JobStatus, progress func(Progress)) (JobStatus, []byte, error) {
	hc := s.cl.HTTPClient()
	hold := min(hc.Timeout, peerCallTimeout) / 2
	if hold <= 0 {
		hold = peerCallTimeout / 2
	}
	url := addr + "/v1/jobs/" + st.ID
	for !st.State.Terminal() {
		cctx, cancel := context.WithTimeout(ctx, peerCallTimeout)
		var next JobStatus
		err := cluster.DoJSON(cctx, hc, http.MethodGet, url+"?wait="+hold.String(), nil, &next)
		cancel()
		if err != nil {
			return st, nil, err
		}
		if st = next; progress != nil && !st.State.Terminal() {
			progress(st.Progress)
		}
	}
	if st.State != StateDone {
		return st, nil, nil
	}
	cctx, cancel := context.WithTimeout(ctx, peerCallTimeout)
	defer cancel()
	b, ok, err := cluster.GetBytes(cctx, hc, url+"/result")
	if err == nil && !ok {
		err = fmt.Errorf("GET %s/result: not found", url)
	}
	return st, b, err
}

// forward proxies a normalized submission to the first reachable
// owner and returns a local mirror job tracking the remote execution.
// ok=false means no owner was reachable and the caller should run the
// job locally.
func (s *Server) forward(norm JobSpec, hash string, now time.Time, owners []cluster.Node) (*Job, bool) {
	owner, remote, ok := s.submitToOwner(context.Background(), norm, owners)
	if !ok {
		return nil, false
	}
	s.metrics.JobsForwarded.Add(1)
	j := s.store.NewJob(norm, hash, now)
	if !j.markRemote(owner.ID, owner.Addr, remote.ID, now) {
		return j, true // raced terminal; nothing else to do
	}
	if remote.State.Terminal() {
		// The owner served it from cache (or failed fast): resolve
		// the mirror now so the caller gets a finished job.
		if st, b, err := s.awaitPeerJob(context.Background(), owner.Addr, remote, nil); err == nil {
			s.resolveRemote(j, st, b)
			return j, true
		}
	}
	go s.followRemote(j, remote)
	return j, true
}

// followRemote keeps a mirror in step with its owner's job: progress
// while it runs, the owner's end once it ends. It returns once the
// mirror leaves StateRemote (done, canceled or re-enqueued) or the
// server drains. An unreachable owner is reported to the failure
// detector and retried after sweepInterval; sweepDead re-enqueues the
// mirror once the owner is declared dead.
func (s *Server) followRemote(j *Job, st JobStatus) {
	node, addr, _ := j.remoteRef()
	ctx, cancel := context.WithCancel(s.draining)
	defer cancel()
	go func() { // a canceled mirror stops following at once
		select {
		case <-j.Done():
			cancel()
		case <-ctx.Done():
		}
	}()
	for j.State() == StateRemote {
		var b []byte
		var err error
		if st, b, err = s.awaitPeerJob(ctx, addr, st, j.setProgress); err == nil {
			if j.State() == StateRemote { // not re-enqueued while the read was held
				s.resolveRemote(j, st, b)
			}
			continue
		}
		if ctx.Err() == nil {
			s.cl.Membership().MarkFailed(node)
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(sweepInterval):
		}
	}
}

// resolveRemote applies the owner's end of a job to its local mirror;
// b holds the result bytes of a done job.
func (s *Server) resolveRemote(j *Job, st JobStatus, b []byte) {
	now := time.Now()
	switch st.State {
	case StateDone:
		j.finishFromPeer(StateRemote, StateDone, s.cache.Put(j.Hash, b), "", st.Cached, now, &s.metrics.JobsRemoteDone)
	case StateFailed, StateCanceled:
		j.finishFromPeer(StateRemote, st.State, "", st.Error, false, now, nil)
	}
}

// sweepDead re-enqueues work stranded on dead nodes: remote mirrors
// whose owner died, and claimed jobs whose thief died. Exactly-once
// still holds — revertToQueued only fires from remote/claimed, and a
// late completion report for a re-run job lands on a terminal (or
// re-owned) job and is dropped.
func (s *Server) sweepDead() {
	if s.cl == nil {
		return
	}
	for _, j := range s.store.Snapshot() {
		switch j.State() {
		case StateRemote, StateClaimed:
			node, _, _ := j.remoteRef()
			if node != "" && !s.cl.Alive(node) {
				s.reenqueueLocal(j)
			}
		}
	}
}

// reenqueueLocal returns a job stranded on a dead node to the local
// worker pool. A claimed job whose first queue entry is still waiting
// keeps that entry instead of taking a second slot.
func (s *Server) reenqueueLocal(j *Job) {
	reverted, submit := j.revertToQueued(time.Now())
	if !reverted {
		return
	}
	if submit {
		if err := s.enqueue(j); err != nil {
			j.finish(StateFailed, "", fmt.Errorf("re-enqueue after node death: %w", err), time.Now(), &s.metrics.JobsFailed)
			return
		}
	}
	s.metrics.JobsReenqueued.Add(1)
}

// cancelRemote best-effort propagates a mirror cancellation to the
// owner so the remote execution stops burning a worker.
func (s *Server) cancelRemote(addr, rid string) {
	ctx, cancel := context.WithTimeout(context.Background(), peerCallTimeout)
	defer cancel()
	_ = cluster.DoJSON(ctx, s.cl.HTTPClient(), http.MethodDelete, addr+"/v1/jobs/"+rid, nil, nil)
}

// --- cluster-wide result cache ----------------------------------------

// peerCacheGet consults the ring owner and replica (excluding self)
// for hash before simulating locally.
func (s *Server) peerCacheGet(hash string, owners []cluster.Node) (b []byte, ok bool) {
	s.eachPeerOwner(context.Background(), owners, func(ctx context.Context, o cluster.Node) (bool, error) {
		var err error
		b, ok, err = cluster.GetBytes(ctx, s.cl.HTTPClient(), o.Addr+cluster.CachePath+hash)
		return ok, err
	})
	return b, ok
}

// writeBackResult pushes freshly computed result bytes to the ring
// owner and replica (excluding self). Best effort: the result is
// already served locally; replication only widens the cache.
func (s *Server) writeBackResult(hash string, b []byte) {
	s.eachPeerOwner(context.Background(), s.cl.Owners(hash, replication), func(ctx context.Context, o cluster.Node) (bool, error) {
		return false, cluster.PutBytes(ctx, s.cl.HTTPClient(), o.Addr+cluster.CachePath+hash, b)
	})
}

// --- work stealing ----------------------------------------------------

// stealableJob is one queued job offered to idle peers.
type stealableJob struct {
	ID   string  `json:"id"`
	Hash string  `json:"hash"`
	Spec JobSpec `json:"spec"`
}

type claimRequest struct {
	ID   string `json:"id"`
	By   string `json:"by"`
	Addr string `json:"addr"`
}

type claimResponse struct {
	OK   bool    `json:"ok"`
	Spec JobSpec `json:"spec,omitempty"`
}

type completeRequest struct {
	ID      string          `json:"id"`
	By      string          `json:"by"`
	Result  json.RawMessage `json:"result,omitempty"`
	Error   string          `json:"error,omitempty"`
	Requeue bool            `json:"requeue,omitempty"`
}

// idleCapacity returns how many more jobs this node could run right
// now without queueing.
func (s *Server) idleCapacity() int {
	free := int64(s.opts.Workers) - s.metrics.JobsRunning.Value() - s.metrics.JobsQueued.Value()
	if free < 0 {
		return 0
	}
	return int(free)
}

// stealOnce scans peers for queued work when this node is idle,
// claims jobs one at a time (the claim is CAS-guarded in the owner's
// jobstore, so a job runs exactly once cluster-wide), runs them
// locally, and reports results back to the owner.
func (s *Server) stealOnce() {
	if s.cl == nil || s.draining.Err() != nil {
		return
	}
	budget := s.idleCapacity()
	if budget <= 0 {
		return
	}
	self := s.cl.Self()
	for _, peer := range s.cl.Members() {
		if budget <= 0 {
			return
		}
		if peer.ID == self.ID || !s.cl.Alive(peer.ID) {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), peerCallTimeout)
		var queued []stealableJob
		err := cluster.DoJSON(ctx, s.cl.HTTPClient(), http.MethodGet, peer.Addr+cluster.QueuePath, nil, &queued)
		cancel()
		if err != nil {
			s.cl.Membership().MarkFailed(peer.ID)
			continue
		}
		for _, sj := range queued {
			if budget <= 0 {
				return
			}
			if s.stealJob(peer, sj) {
				budget--
			}
		}
	}
}

// stealJob claims one queued job from a peer and runs it locally.
func (s *Server) stealJob(peer cluster.Node, sj stealableJob) bool {
	ctx, cancel := context.WithTimeout(context.Background(), peerCallTimeout)
	defer cancel()
	var cr claimResponse
	err := cluster.DoJSON(ctx, s.cl.HTTPClient(), http.MethodPost, peer.Addr+cluster.ClaimPath,
		claimRequest{ID: sj.ID, By: s.selfID(), Addr: s.cl.Self().Addr}, &cr)
	if err != nil || !cr.OK {
		return false
	}
	giveBack := func() bool {
		s.reportComplete(originRef{NodeID: peer.ID, Addr: peer.Addr, ID: sj.ID},
			completeRequest{ID: sj.ID, By: s.selfID(), Requeue: true})
		return false
	}
	norm, err := cr.Spec.Normalize()
	if err != nil {
		// The spec ran Normalize on the owner already; a failure here
		// means an incompatible peer. Give the job back.
		return giveBack()
	}
	s.metrics.JobsStolen.Add(1)
	now := time.Now()
	j := s.store.NewJob(norm, sj.Hash, now)
	j.setNode(s.selfID())
	j.setOrigin(peer.ID, peer.Addr, sj.ID)
	if err := s.enqueue(j); err != nil {
		j.finish(StateFailed, "", err, time.Now(), nil)
		// We cannot run it after all; let the owner re-queue it.
		return giveBack()
	}
	return true
}

// reportToOrigin posts a stolen job's outcome back to the victim
// node, if this job was stolen. Called from runJob on every outcome.
func (s *Server) reportToOrigin(j *Job, result []byte, runErr error) {
	og, ok := j.Origin()
	if !ok {
		return
	}
	req := completeRequest{ID: og.ID, By: s.selfID(), Result: result}
	if runErr != nil {
		req.Error = runErr.Error()
	}
	go s.reportComplete(og, req)
}

// reportComplete delivers one completion report with retries; the
// owner's dead-thief sweep covers the case where every attempt fails.
func (s *Server) reportComplete(og originRef, req completeRequest) {
	for attempt := 0; attempt < 3; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), peerCallTimeout)
		err := cluster.DoJSON(ctx, s.cl.HTTPClient(), http.MethodPost, og.Addr+cluster.CompletePath, req, nil)
		cancel()
		if err == nil {
			return
		}
		var pe *cluster.PeerError
		if errors.As(err, &pe) {
			return // the owner saw the report and rejected it (job gone/terminal)
		}
		select {
		case <-s.draining.Done():
			return
		case <-time.After(time.Duration(attempt+1) * 100 * time.Millisecond):
		}
	}
	s.cl.Membership().MarkFailed(og.NodeID)
}

// --- background loops and diagnostics ---------------------------------

// startClusterLoops runs the dead-node sweep and the work-stealing
// scan until Shutdown.
func (s *Server) startClusterLoops() {
	for _, loop := range []struct {
		every time.Duration
		run   func()
	}{{sweepInterval, s.sweepDead}, {stealInterval, s.stealOnce}} {
		s.loopWG.Add(1)
		go func() {
			defer s.loopWG.Done()
			t := time.NewTicker(loop.every)
			defer t.Stop()
			for {
				select {
				case <-s.draining.Done():
					return
				case <-t.C:
					loop.run()
				}
			}
		}()
	}
}

// clusterInfo renders the live cluster summary for /debug/vars.
func (s *Server) clusterInfo() any {
	self := s.cl.Self()
	members := s.cl.Members()
	alive := 0
	states := make(map[string]string, len(members))
	for _, m := range members {
		states[m.ID] = string(m.State)
		if m.State == cluster.StateAlive {
			alive++
		}
	}
	return map[string]any{
		"node_id":       self.ID,
		"addr":          self.Addr,
		"incarnation":   self.Incarnation,
		"members_total": len(members),
		"members_alive": alive,
		"members":       states,
		"ring_nodes":    s.cl.Ring().Nodes(),
	}
}

// --- peer-protocol HTTP handlers --------------------------------------

// registerClusterRoutes adds the peer protocol to the API mux.
func (s *Server) registerClusterRoutes(mux *http.ServeMux) {
	mux.HandleFunc("POST "+cluster.GossipPath, s.handleGossip)
	mux.HandleFunc("GET "+cluster.MembersPath, s.handleMembers)
	mux.HandleFunc("GET "+cluster.CachePath+"{hash}", s.handleCacheGet)
	mux.HandleFunc("PUT "+cluster.CachePath+"{hash}", s.handleCachePut)
	mux.HandleFunc("GET "+cluster.QueuePath, s.handleQueue)
	mux.HandleFunc("POST "+cluster.ClaimPath, s.handleClaim)
	mux.HandleFunc("POST "+cluster.CompletePath, s.handleComplete)
}

func (s *Server) handleGossip(w http.ResponseWriter, r *http.Request) {
	var d cluster.Digest
	if err := cluster.ReadJSON(w, r, &d, 1<<20); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	cluster.WriteJSON(w, http.StatusOK, s.cl.HandleGossip(d))
}

func (s *Server) handleMembers(w http.ResponseWriter, _ *http.Request) {
	cluster.WriteJSON(w, http.StatusOK, struct {
		Self    cluster.Node   `json:"self"`
		Members []cluster.Node `json:"members"`
		Ring    []string       `json:"ring"`
	}{s.cl.Self(), s.cl.Members(), s.cl.Ring().Nodes()})
}

func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	res, ok := s.cache.Load(r.PathValue("hash"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("not cached"))
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, res)
}

func (s *Server) handleCachePut(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	body, err := readAllLimited(w, r, 64<<20)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.cache.Put(hash, body)
	s.metrics.PeerCacheFills.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleQueue(w http.ResponseWriter, _ *http.Request) {
	var out []stealableJob
	if s.draining.Err() == nil {
		for _, j := range s.store.Snapshot() {
			// Trace replays read a node-local file; they cannot move.
			if j.State() == StateQueued && j.Spec.TracePath == "" {
				out = append(out, stealableJob{ID: j.ID, Hash: j.Hash, Spec: j.Spec})
			}
		}
	}
	cluster.WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleClaim(w http.ResponseWriter, r *http.Request) {
	var req claimRequest
	if err := cluster.ReadJSON(w, r, &req, 1<<20); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j, ok := s.store.Get(req.ID)
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown job "+req.ID))
		return
	}
	if req.By == "" || j.Spec.TracePath != "" || !j.tryClaim(req.By, req.Addr, time.Now()) {
		cluster.WriteJSON(w, http.StatusOK, claimResponse{OK: false})
		return
	}
	s.metrics.JobsStolenAway.Add(1)
	cluster.WriteJSON(w, http.StatusOK, claimResponse{OK: true, Spec: j.Spec})
}

func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req completeRequest
	if err := cluster.ReadJSON(w, r, &req, 64<<20); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j, ok := s.store.Get(req.ID)
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown job "+req.ID))
		return
	}
	now := time.Now()
	switch {
	case req.Requeue:
		s.reenqueueLocal(j)
	case req.Error != "":
		j.finishFromPeer(StateClaimed, StateFailed, "", req.Error, false, now, &s.metrics.JobsFailed)
	default:
		j.finishFromPeer(StateClaimed, StateDone, s.cache.Put(j.Hash, req.Result), "", false, now, &s.metrics.JobsRemoteDone)
	}
	w.WriteHeader(http.StatusNoContent)
}

// readAllLimited reads a bounded request body.
func readAllLimited(w http.ResponseWriter, r *http.Request, max int64) ([]byte, error) {
	defer r.Body.Close()
	return io.ReadAll(http.MaxBytesReader(w, r.Body, max))
}
