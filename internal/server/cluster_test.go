package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"chameleon/internal/cluster"
	"chameleon/internal/sim"
)

// fakeClock drives suspicion/eviction deterministically: gossip and
// HTTP run for real, but failure-detection time only moves when the
// test advances it.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

const testSuspicion = 100 * time.Millisecond

// clusterNode is one in-process chamd node: real HTTP (httptest), real
// worker pool, manual cluster loops.
type clusterNode struct {
	id   string
	s    *Server
	cl   *cluster.Cluster
	srv  *httptest.Server
	addr string
}

// newServerCluster builds n nodes, each seeded with node 0, with the
// background cluster loops disabled (tests call sweepDead / stealOnce
// / GossipOnce / Tick at deterministic points).
func newServerCluster(t *testing.T, n int, clock *fakeClock, workers func(i int) int) []*clusterNode {
	t.Helper()
	nodes := make([]*clusterNode, n)
	for i := range nodes {
		srv := httptest.NewUnstartedServer(nil)
		nodes[i] = &clusterNode{
			id:   fmt.Sprintf("node-%c", 'a'+i),
			srv:  srv,
			addr: "http://" + srv.Listener.Addr().String(),
		}
	}
	for i, nd := range nodes {
		var seeds []string
		if i > 0 {
			seeds = []string{nodes[0].addr}
		}
		nd.cl = cluster.New(cluster.Config{
			NodeID:           nd.id,
			Addr:             nd.addr,
			Peers:            seeds,
			SuspicionTimeout: testSuspicion,
			EvictTimeout:     time.Hour, // dead nodes stay visible to assertions
			Client:           &http.Client{Timeout: 2 * time.Second},
			Now:              clock.Now,
		})
		w := 2
		if workers != nil {
			w = workers(i)
		}
		nd.s = New(Options{Workers: w, Cluster: nd.cl, ClusterManual: true})
		nd.srv.Config.Handler = nd.s.Handler()
		nd.srv.Start()
		nd := nd
		t.Cleanup(func() {
			// Drain first: it releases held status reads, which the
			// HTTP server's Close would otherwise wait out.
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			defer cancel()
			_ = nd.s.Shutdown(ctx)
			nd.srv.Close()
		})
	}
	return nodes
}

// converge gossips until every node agrees on an n-node ring.
func converge(t testing.TB, nodes []*clusterNode) {
	t.Helper()
	ctx := context.Background()
	for round := 0; round < 200; round++ {
		for _, nd := range nodes {
			_ = nd.cl.GossipOnce(ctx)
		}
		agreed := true
		for _, nd := range nodes {
			if nd.cl.Ring().Len() != len(nodes) {
				agreed = false
			}
		}
		if agreed {
			return
		}
	}
	for _, nd := range nodes {
		t.Logf("%s ring: %v", nd.id, nd.cl.Ring().Nodes())
	}
	t.Fatal("cluster did not converge")
}

// findSpec searches seeds for a spec whose ring owners satisfy pred.
func findSpec(t *testing.T, cl *cluster.Cluster, base func(uint64) JobSpec, pred func(owners []string) bool) JobSpec {
	t.Helper()
	for seed := uint64(1); seed < 4096; seed++ {
		spec := base(seed)
		norm, err := spec.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if pred(cl.Ring().Owners(norm.Hash(), replication)) {
			return spec
		}
	}
	t.Fatal("no seed satisfies the ownership predicate")
	return JobSpec{}
}

// driveUntilTerminal pumps a node's dead-node sweep until j ends; a
// mirror's follower resolves it once its owner's job ends.
func driveUntilTerminal(t *testing.T, nd *clusterNode, j *Job, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.After(timeout)
	for {
		nd.s.sweepDead()
		select {
		case <-j.Done():
			return j.Status()
		case <-deadline:
			t.Fatalf("job %s not terminal after %s (state %s)", j.ID, timeout, j.State())
			return JobStatus{}
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func sumJobsDone(nodes []*clusterNode) int64 {
	var n int64
	for _, nd := range nodes {
		n += nd.s.Metrics().JobsDone.Value()
	}
	return n
}

// TestClusterExactlyOnceWithPeerCache is acceptance test (a): the same
// spec submitted to two different nodes simulates exactly once — the
// second submission is served from the cluster cache with Cached=true.
func TestClusterExactlyOnceWithPeerCache(t *testing.T) {
	clock := newFakeClock()
	nodes := newServerCluster(t, 3, clock, nil)
	converge(t, nodes)
	a, b, c := nodes[0], nodes[1], nodes[2]

	// Owned by a (replica c), so both b and c must route to a.
	spec := findSpec(t, a.cl, fastSpec, func(owners []string) bool {
		return len(owners) == 2 && owners[0] == a.id && owners[1] == c.id
	})

	// Submit via non-owner b: forwarded to a, mirrored locally.
	jb, err := b.s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.s.Metrics().JobsForwarded.Value(); got != 1 {
		t.Fatalf("b forwarded %d jobs, want 1", got)
	}
	st := driveUntilTerminal(t, b, jb, 30*time.Second)
	if st.State != StateDone || st.Node != a.id {
		t.Fatalf("mirror = %s on %q (err %q), want done on %s", st.State, st.Node, st.Error, a.id)
	}
	if st.Cached {
		t.Fatal("first execution must not be served from cache")
	}

	// Same spec via the other non-owner c: a answers from its cache, the
	// forward resolves synchronously, and nothing simulates again.
	jc, err := c.s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st = driveUntilTerminal(t, c, jc, 10*time.Second)
	if st.State != StateDone || !st.Cached {
		t.Fatalf("second submission: state=%s cached=%v, want done from cache", st.State, st.Cached)
	}
	if n := sumJobsDone(nodes); n != 1 {
		t.Fatalf("cluster simulated %d times, want exactly 1", n)
	}
	// The forwarded mirrors carry the hash their submit computed.
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if jb.Hash != norm.Hash() || jc.Hash != norm.Hash() {
		t.Fatalf("mirror hashes %s, %s, want %s", jb.Hash, jc.Hash, norm.Hash())
	}

	// Both results decode to the same simulation output.
	var r1, r2 sim.Result
	b1, _ := jb.Result()
	b2, _ := jc.Result()
	if err := json.Unmarshal(b1, &r1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b2, &r2); err != nil {
		t.Fatal(err)
	}
	if r1.MaxCycles != r2.MaxCycles {
		t.Fatalf("results diverge: %d vs %d cycles", r1.MaxCycles, r2.MaxCycles)
	}

	// Job IDs are namespaced per node.
	if jb.ID == jc.ID {
		t.Fatalf("job IDs collide across nodes: %s", jb.ID)
	}
}

// TestClusterNodeDeathReenqueues is acceptance test (b): killing a
// node makes the ring reconverge within the suspicion timeout, and
// jobs it owned complete on the survivors.
func TestClusterNodeDeathReenqueues(t *testing.T) {
	clock := newFakeClock()
	// Node c gets one worker so a slow job can wedge its queue.
	nodes := newServerCluster(t, 3, clock, func(i int) int {
		if i == 2 {
			return 1
		}
		return 2
	})
	converge(t, nodes)
	a, b, c := nodes[0], nodes[1], nodes[2]

	// Wedge c's single worker with a never-ending job c owns itself.
	wedge := findSpec(t, c.cl, slowSpec, func(owners []string) bool {
		return owners[0] == c.id || owners[1] == c.id
	})
	if _, err := c.s.Submit(wedge); err != nil {
		t.Fatal(err)
	}

	// Forward a fast job from a to c; it queues behind the wedge.
	spec := findSpec(t, a.cl, fastSpec, func(owners []string) bool {
		return len(owners) == 2 && owners[0] == c.id && owners[1] == b.id
	})
	ja, err := a.s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if ja.State() != StateRemote {
		t.Fatalf("job state = %s, want remote mirror", ja.State())
	}

	// Kill c mid-queue: the forwarded job is still waiting for a worker.
	c.srv.CloseClientConnections()
	c.srv.Close()

	// Survivors gossip: exchanges with c fail and mark it suspect.
	ctx := context.Background()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		_ = a.cl.GossipOnce(ctx)
		_ = b.cl.GossipOnce(ctx)
		an, aok := a.cl.Membership().Lookup(c.id)
		bn, bok := b.cl.Membership().Lookup(c.id)
		if aok && bok && an.State != cluster.StateAlive && bn.State != cluster.StateAlive {
			break
		}
	}

	// Advance past the suspicion timeout: suspect becomes dead and the
	// ring reconverges to the two survivors.
	clock.Advance(testSuspicion + time.Millisecond)
	a.cl.Tick(clock.Now())
	b.cl.Tick(clock.Now())
	_ = a.cl.GossipOnce(ctx)
	_ = b.cl.GossipOnce(ctx)
	for _, nd := range []*clusterNode{a, b} {
		ring := nd.cl.Ring().Nodes()
		if len(ring) != 2 {
			t.Fatalf("%s ring = %v, want the 2 survivors", nd.id, ring)
		}
		for _, id := range ring {
			if id == c.id {
				t.Fatalf("%s ring still contains dead node: %v", nd.id, ring)
			}
		}
	}

	// a's sweep notices the dead owner and re-runs the job locally.
	st := driveUntilTerminal(t, a, ja, 30*time.Second)
	if st.State != StateDone {
		t.Fatalf("re-enqueued job = %s (err %q), want done", st.State, st.Error)
	}
	if got := a.s.Metrics().JobsReenqueued.Value(); got != 1 {
		t.Fatalf("jobs_reenqueued = %d, want 1", got)
	}
	if _, err := ja.Result(); err != nil {
		t.Fatalf("result unavailable after failover: %v", err)
	}
}

// TestClusterWorkStealing: an idle node asks a loaded peer for queued
// work, and the peer hands the job over as a forward: the victim's job
// becomes a mirror of the thief's copy and ends done with it, so the
// job runs exactly once.
func TestClusterWorkStealing(t *testing.T) {
	clock := newFakeClock()
	// Node a has a single worker; b and c are idle helpers.
	nodes := newServerCluster(t, 3, clock, func(i int) int {
		if i == 0 {
			return 1
		}
		return 2
	})
	converge(t, nodes)
	a, b := nodes[0], nodes[1]

	_, jq := wedgeAndQueue(t, a, fastSpec)

	// a hands nothing to an unknown node or to itself.
	for _, by := range []string{"node-x", a.id} {
		var handed int
		err := cluster.DoJSON(context.Background(), http.DefaultClient, http.MethodPost, a.addr+cluster.StealPath,
			stealRequest{By: by, N: 1 << 30}, &handed)
		if err != nil || handed != 0 || jq.State() != StateQueued {
			t.Fatalf("steal ask by %q: handed %d (err %v), job %s; want 0 and queued", by, handed, err, jq.State())
		}
	}

	// Idle b asks for work and is handed the queued job.
	b.s.stealOnce()
	if got := b.s.Metrics().JobsStolen.Value(); got != 1 {
		t.Fatalf("b stole %d jobs, want 1", got)
	}
	if st := jq.State(); st != StateRemote {
		t.Fatalf("handed-off job = %s on the victim, want remote", st)
	}

	// The victim's mirror ends with the thief's copy.
	st := waitTerminal(t, jq, 30*time.Second)
	if st.State != StateDone {
		t.Fatalf("stolen job = %s (err %q), want done", st.State, st.Error)
	}
	if st.Node != b.id || st.NodeAddr != b.addr || st.RemoteID == "" {
		t.Fatalf("stolen job mirrors %q at %q (remote id %q), want %s at %s", st.Node, st.NodeAddr, st.RemoteID, b.id, b.addr)
	}
	if got := a.s.Metrics().JobsStolenAway.Value(); got != 1 {
		t.Fatalf("a handed %d jobs to thieves, want 1", got)
	}
	if got := sumJobsDone(nodes); got != 1 {
		t.Fatalf("cluster ran the job %d times, want 1", got)
	}
	// A second ask finds nothing left to steal.
	b.s.stealOnce()
	if got := b.s.Metrics().JobsStolen.Value(); got != 1 {
		t.Fatalf("second scan stole more work: %d", got)
	}
}

// wedgeAndQueue fills nd's single worker with a never-ending job, then
// queues behind it a job from spec that nd owns (so it is not
// forwarded). The wedge must be running first: a still-queued wedge
// would be stolen too, and nd's freed worker would run the queued job.
func wedgeAndQueue(t *testing.T, nd *clusterNode, spec func(uint64) JobSpec) (wedge, queued *Job) {
	t.Helper()
	owned := func(owners []string) bool { return owners[0] == nd.id || owners[1] == nd.id }
	wedge, err := nd.s.Submit(findSpec(t, nd.cl, slowSpec, owned))
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); wedge.State() != StateRunning; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("wedge never started: %s", wedge.State())
		}
	}
	queued, err = nd.s.Submit(findSpec(t, nd.cl, func(seed uint64) JobSpec { return spec(seed + 1000) }, owned))
	if err != nil {
		t.Fatal(err)
	}
	if st := queued.State(); st != StateQueued {
		t.Fatalf("job state = %s, want queued behind the wedge", st)
	}
	return wedge, queued
}

// TestCancelStolenJobStopsThief: canceling a handed-off job on the
// victim cancels the thief's copy through the mirror's peer reference,
// so the thief's worker is freed instead of running the job to the end.
func TestCancelStolenJobStopsThief(t *testing.T) {
	nodes := newServerCluster(t, 2, newFakeClock(), func(int) int { return 1 })
	converge(t, nodes)
	a, b := nodes[0], nodes[1]

	_, jq := wedgeAndQueue(t, a, slowSpec)
	b.s.stealOnce()
	var copyID string
	for deadline := time.Now().Add(10 * time.Second); copyID == ""; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the thief's job ID never reached the victim (state %s)", jq.State())
		}
		copyID = jq.Status().RemoteID
	}
	jb, ok := b.s.Job(copyID)
	if !ok {
		t.Fatalf("thief has no job %s", copyID)
	}
	for deadline := time.Now().Add(10 * time.Second); jb.State() != StateRunning; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("thief's copy never started: %s", jb.State())
		}
	}

	if ok, err := a.s.Cancel(jq.ID); !ok || err != nil {
		t.Fatalf("cancel on the victim = %v, %v", ok, err)
	}
	if st := waitTerminal(t, jb, 10*time.Second); st.State != StateCanceled {
		t.Fatalf("thief's copy ended %s (err %q), want canceled", st.State, st.Error)
	}
	if n := b.s.Metrics().JobsRunning.Value(); n != 0 {
		t.Fatalf("thief still runs %d jobs after the cancel", n)
	}
	if st := jq.State(); st != StateCanceled {
		t.Fatalf("victim's job = %s, want canceled", st)
	}
}

// TestClusterForwardLoopGuard: a submit carrying the forwarded header
// is always served locally, even by a non-owner — forwarding is single
// hop by construction.
func TestClusterForwardLoopGuard(t *testing.T) {
	clock := newFakeClock()
	nodes := newServerCluster(t, 3, clock, nil)
	converge(t, nodes)
	a, b := nodes[0], nodes[1]

	// b does not own this spec; an unmarked submit would forward it.
	spec := findSpec(t, b.cl, fastSpec, func(owners []string) bool {
		return len(owners) == 2 && owners[0] != b.id && owners[1] != b.id
	})
	body, _ := json.Marshal(spec)
	req, _ := http.NewRequest(http.MethodPost, b.addr+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.ForwardedHeader, a.id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.State == StateRemote {
		t.Fatal("forwarded submit was forwarded again: loop guard failed")
	}
	if st.Node != b.id {
		t.Fatalf("forwarded submit ran on %q, want %s", st.Node, b.id)
	}
	if got := b.s.Metrics().JobsForwarded.Value(); got != 0 {
		t.Fatalf("b forwarded %d jobs, want 0", got)
	}
}

// TestLatePeerReportDoesNotFinishRerun: a peer's report ends a job only
// while the job is still its mirror. Once a forwarded or handed-off job
// has been re-enqueued and a local worker has started it, a late report
// from the peer it left is dropped, and the local run decides the
// outcome.
func TestLatePeerReportDoesNotFinishRerun(t *testing.T) {
	s := newTestServer(t, Options{})
	now := time.Now()
	// A forward knows the owner's job ID at once; a hand-off learns the
	// thief's only once the thief has answered.
	for _, rid := range []string{"rid", ""} {
		j := s.store.NewJob(fastSpec(1), fastSpec(1).Hash(), now)
		if !j.markRemote("node-x", "http://x", rid, now) {
			t.Fatal("could not move the job away")
		}
		if reverted, _ := j.revertToQueued("node-x"); !reverted || !j.tryStart(now, func() {}) {
			t.Fatal("could not move the job back and into a local run")
		}
		s.resolveRemote(j, JobStatus{State: StateDone}, []byte(`{}`))
		if j.setRemoteID("node-x", "late") {
			t.Errorf("remote id %q: a late hand-off answer reattached the local rerun", rid)
		}
		if st := j.State(); st != StateRunning {
			t.Errorf("remote id %q: a late peer report moved the local rerun to %s", rid, st)
		}
	}
}

// memberState returns the state in which nd's membership sees id.
func memberState(t *testing.T, nd *clusterNode, id string) cluster.NodeState {
	t.Helper()
	for _, m := range nd.cl.Members() {
		if m.ID == id {
			return m.State
		}
	}
	t.Fatalf("%s does not know %s", nd.id, id)
	return ""
}

// TestRefusedForwardLeavesOwnerAlive: an owner that answers a forward
// with 503 (its queue is full) is alive. The forwarding node falls
// through to the replica and must not report the owner to the failure
// detector: only a failed round trip does that.
func TestRefusedForwardLeavesOwnerAlive(t *testing.T) {
	nodes := newServerCluster(t, 3, newFakeClock(), func(int) int { return 1 })
	converge(t, nodes)
	a, b, c := nodes[0], nodes[1], nodes[2]

	// Fill a: its one worker runs a wedge and its queue is full. The
	// forwarded-from mark keeps every submission on a.
	wedge, err := a.s.submit(slowSpec(1), "test")
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); wedge.State() != StateRunning; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("wedge never started: %s", wedge.State())
		}
	}
	for seed := uint64(2); ; seed++ {
		if _, err := a.s.submit(slowSpec(seed), "test"); errors.Is(err, ErrQueueFull) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}

	spec := findSpec(t, b.cl, fastSpec, func(owners []string) bool {
		return owners[0] == a.id && owners[1] == c.id
	})
	j, err := b.s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := j.Status(); st.Node != c.id {
		t.Fatalf("forward landed on %q (state %s), want the replica %s", st.Node, st.State, c.id)
	}
	if st := memberState(t, b, a.id); st != cluster.StateAlive {
		t.Errorf("b sees the owner that refused its forward as %s, want alive", st)
	}
}
