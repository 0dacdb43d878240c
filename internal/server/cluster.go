package server

import (
	"context"
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
// cache lookups, steal asks). Forwards and hand-offs share it: a job
// whose peer cannot take it quickly runs locally instead.
const peerCallTimeout = 5 * time.Second

// --- remote execution: run a job on a peer and mirror it here ---------

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

// peerFailed reports peer id to the failure detector when err is a
// failed round trip. A peer that answered, even with an error status
// such as 503 (queue full), is alive: a *cluster.PeerError never
// marks it.
func (s *Server) peerFailed(id string, err error) {
	var answered *cluster.PeerError
	if err != nil && !errors.As(err, &answered) {
		s.cl.MarkFailed(id)
	}
}

// eachPeerOwner calls call on each live ring owner other than this
// node, in ring order and under peerCallTimeout, until call reports
// done. An owner whose call fails is reported to peerFailed.
func (s *Server) eachPeerOwner(ctx context.Context, owners []cluster.Node, call func(context.Context, cluster.Node) (done bool, err error)) {
	for _, o := range owners {
		if o.ID == s.selfID() || !s.cl.Alive(o.ID) {
			continue
		}
		cctx, cancel := context.WithTimeout(ctx, peerCallTimeout)
		done, err := call(cctx, o)
		cancel()
		if err != nil {
			s.peerFailed(o.ID, err)
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
		err = &cluster.PeerError{Status: http.StatusNotFound, URL: url + "/result", Body: "not found"}
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
	if j.markRemote(owner.ID, owner.Addr, remote.ID, now) {
		s.follow(j, owner.Addr, remote)
	}
	return j, true
}

// follow keeps mirror j in step with remote, its copy on the peer at
// addr. A copy the peer already ended (served from its cache, or failed
// fast) resolves the mirror before follow returns, so a forward's
// caller gets a finished job; any other is followed in the background.
func (s *Server) follow(j *Job, addr string, remote JobStatus) {
	if remote.State.Terminal() {
		if st, b, err := s.awaitPeerJob(context.Background(), addr, remote, nil); err == nil {
			s.resolveRemote(j, st, b)
			return
		}
	}
	go s.followRemote(j, remote)
}

// followRemote keeps a mirror in step with its owner's job: progress
// while it runs, the owner's end once it ends. It returns once the
// mirror leaves StateRemote (done, canceled or re-enqueued) or the
// server drains. A failed read is retried after sweepInterval, and an
// unreachable owner is reported to the failure detector (peerFailed);
// sweepDead re-enqueues the mirror once the owner is declared dead.
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
			s.peerFailed(node, err)
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
		j.finishFromPeer(StateDone, s.cache.Put(j.Hash, b), "", st.Cached, now, &s.metrics.JobsRemoteDone)
	case StateFailed, StateCanceled:
		j.finishFromPeer(st.State, "", st.Error, false, now, nil)
	}
}

// sweepDead re-enqueues mirrors whose executing node died, and counts
// them in jobs_reenqueued. Exactly-once still holds: revertToQueued
// only fires from remote, and a late report from the dead node's copy
// lands on a terminal (or re-run) job and is dropped.
func (s *Server) sweepDead() {
	if s.cl == nil {
		return
	}
	for _, j := range s.store.Snapshot() {
		if j.State() != StateRemote {
			continue
		}
		if node, _, _ := j.remoteRef(); node != "" && !s.cl.Alive(node) && s.requeue(j, node) {
			s.metrics.JobsReenqueued.Add(1)
		}
	}
}

// requeue returns a job mirrored from node to the local worker pool,
// and reports whether it did. A handed-off job whose first queue entry
// still waits keeps that entry instead of taking a second slot.
func (s *Server) requeue(j *Job, node string) bool {
	reverted, submit := j.revertToQueued(node)
	if !reverted {
		return false
	}
	if submit {
		if err := s.enqueue(j); err != nil {
			j.finish(StateFailed, "", fmt.Errorf("re-enqueue from %s: %w", node, err), time.Now(), &s.metrics.JobsFailed)
			return false
		}
	}
	return true
}

// cancelRemote best-effort propagates a mirror cancellation to the
// peer so the remote execution stops burning a worker.
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

// --- work stealing: an idle node asks a peer to hand it queued jobs ---

// maxStealBatch bounds how many jobs one steal call hands over.
const maxStealBatch = 64

// stealRequest asks a peer to hand up to N of its queued jobs to the
// idle node By.
type stealRequest struct {
	By string `json:"by"`
	N  int    `json:"n"`
}

// idleCapacity returns how many more jobs this node could run right
// now without queueing: its workers less its running and queued jobs.
// A queued job handed off or canceled no longer counts, even while its
// pool entry still waits.
func (s *Server) idleCapacity() int {
	free := int64(s.opts.Workers) - s.metrics.JobsRunning.Value() - s.metrics.JobsQueued.Value()
	if free < 0 {
		return 0
	}
	return int(free)
}

// stealOnce asks live peers in turn, while this node is idle, to hand
// it queued jobs, up to its idle capacity. A peer hands a job over as a
// forward (handOff): it submits the spec here and mirrors our copy.
func (s *Server) stealOnce() {
	if s.cl == nil || s.draining.Err() != nil {
		return
	}
	budget := s.idleCapacity()
	self := s.selfID()
	for _, peer := range s.cl.Members() {
		if budget <= 0 {
			return
		}
		if peer.ID == self || !s.cl.Alive(peer.ID) {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), peerCallTimeout)
		var handed int
		err := cluster.DoJSON(ctx, s.cl.HTTPClient(), http.MethodPost, peer.Addr+cluster.StealPath,
			stealRequest{By: self, N: budget}, &handed)
		cancel()
		if err != nil {
			s.peerFailed(peer.ID, err)
			continue
		}
		s.metrics.JobsStolen.Add(int64(handed))
		budget -= handed
	}
}

// handOff runs j, which handleSteal marked remote on thief, there: it
// submits the spec with the forwarded header, records the thief's job
// ID and follows it as a forward does. A refused or failed submission
// returns j to the local queue, where it keeps its queue entry if that
// still waits: a lost peer costs capacity, never a job. A mirror that
// was canceled or reverted meanwhile cancels the thief's copy.
func (s *Server) handOff(j *Job, thief cluster.Node) {
	_, remote, ok := s.submitToOwner(context.Background(), j.Spec, []cluster.Node{thief})
	if !ok {
		s.requeue(j, thief.ID)
		return
	}
	if !j.setRemoteID(thief.ID, remote.ID) {
		s.cancelRemote(thief.Addr, remote.ID)
		return
	}
	s.metrics.JobsStolenAway.Add(1)
	s.follow(j, thief.Addr, remote)
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
	mux.HandleFunc("POST "+cluster.StealPath, s.handleSteal)
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
	writeResult(w, res)
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

// handleSteal hands up to n of this node's queued jobs, oldest first,
// to the live peer by, and answers how many it took. Each job leaves
// the queue through markRemote's CAS before the answer goes out, and
// is submitted to the thief only after (handOff), so the thief's call
// never waits out the submissions. Trace replays read a node-local
// file and never move; a draining node hands nothing over.
func (s *Server) handleSteal(w http.ResponseWriter, r *http.Request) {
	var req stealRequest
	if err := cluster.ReadJSON(w, r, &req, 1<<10); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	thief, known := s.cl.Lookup(req.By)
	var handed []*Job
	if known && thief.ID != s.selfID() && s.cl.Alive(thief.ID) && s.draining.Err() == nil {
		now := time.Now()
		for _, j := range s.store.Snapshot() {
			if len(handed) >= min(req.N, maxStealBatch) {
				break
			}
			if j.Spec.TracePath == "" && j.markRemote(thief.ID, thief.Addr, "", now) {
				handed = append(handed, j)
			}
		}
	}
	cluster.WriteJSON(w, http.StatusOK, len(handed))
	for _, j := range handed {
		go s.handOff(j, thief)
	}
}

// readAllLimited reads a bounded request body.
func readAllLimited(w http.ResponseWriter, r *http.Request, max int64) ([]byte, error) {
	defer r.Body.Close()
	return io.ReadAll(http.MaxBytesReader(w, r.Body, max))
}
