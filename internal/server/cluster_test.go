package server

import (
	"bytes"
	"context"
	"encoding/json"
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
func converge(t *testing.T, nodes []*clusterNode) {
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

// TestClusterWorkStealing: an idle node claims queued work from a
// loaded peer, runs it, and reports the result back; the claim CAS
// means the job runs exactly once.
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

	// Wedge a's worker, then queue a fast job a owns (no forwarding).
	// The wedge must be running first: a still-queued wedge is stolen
	// too, and a's freed worker then runs the fast job itself.
	wedge := findSpec(t, a.cl, slowSpec, func(owners []string) bool {
		return owners[0] == a.id || owners[1] == a.id
	})
	jw, err := a.s.Submit(wedge)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); jw.State() != StateRunning; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("wedge never started: %s", jw.State())
		}
	}
	spec := findSpec(t, a.cl, fastSpec, func(owners []string) bool {
		return owners[0] == a.id || owners[1] == a.id
	})
	jq, err := a.s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if jq.State() != StateQueued {
		t.Fatalf("job state = %s, want queued behind the wedge", jq.State())
	}

	// Idle b scans for work and claims it.
	b.s.stealOnce()
	if got := b.s.Metrics().JobsStolen.Value(); got != 1 {
		t.Fatalf("b stole %d jobs, want 1", got)
	}
	if got := a.s.Metrics().JobsStolenAway.Value(); got != 1 {
		t.Fatalf("a lost %d jobs to thieves, want 1", got)
	}

	// The victim's job completes via b's completion report.
	st := waitTerminal(t, jq, 30*time.Second)
	if st.State != StateDone {
		t.Fatalf("stolen job = %s (err %q), want done", st.State, st.Error)
	}
	if st.Node != b.id {
		t.Fatalf("stolen job executed on %q, want %s", st.Node, b.id)
	}
	// A second scan finds nothing left to steal.
	b.s.stealOnce()
	if got := b.s.Metrics().JobsStolen.Value(); got != 1 {
		t.Fatalf("second scan stole more work: %d", got)
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
// while the job is still in the state the report belongs to. Once a
// claimed or forwarded job has been re-enqueued and a local worker has
// started it, a late report from the thief or owner it left is
// dropped, and the local run decides the outcome.
func TestLatePeerReportDoesNotFinishRerun(t *testing.T) {
	nd := newServerCluster(t, 1, newFakeClock(), nil)[0]
	now := time.Now()
	rerun := func(away func(*Job) bool) *Job {
		j := nd.s.store.NewJob(fastSpec(1), fastSpec(1).Hash(), now)
		if !away(j) {
			t.Fatal("could not move the job away")
		}
		if reverted, _ := j.revertToQueued(now); !reverted || !j.tryStart(now, func() {}) {
			t.Fatal("could not move the job back and into a local run")
		}
		return j
	}

	stolen := rerun(func(j *Job) bool { return j.tryClaim("node-x", "http://x", now) })
	body, err := json.Marshal(completeRequest{ID: stolen.ID, By: "node-x", Result: json.RawMessage(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(nd.addr+cluster.CompletePath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st := stolen.State(); st != StateRunning {
		t.Errorf("a late thief report moved the local rerun to %s", st)
	}

	forwarded := rerun(func(j *Job) bool { return j.markRemote("node-x", "http://x", "rid", now) })
	nd.s.resolveRemote(forwarded, JobStatus{State: StateDone}, []byte(`{}`))
	if st := forwarded.State(); st != StateRunning {
		t.Errorf("a late owner report moved the local rerun to %s", st)
	}
}
