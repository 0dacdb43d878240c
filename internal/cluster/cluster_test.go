package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// fakeClock is a deterministic time source for suspicion/eviction.
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

// testNode is one in-process gossip endpoint.
type testNode struct {
	c  *Cluster
	ts *httptest.Server
}

// newTestCluster wires n clusters together over httptest servers.
// Node i is seeded with node 0's address only (join-through-seed).
func newTestCluster(t *testing.T, n int, clock *fakeClock) []*testNode {
	t.Helper()
	nodes := make([]*testNode, n)
	for i := range nodes {
		nodes[i] = &testNode{}
		node := nodes[i]
		mux := http.NewServeMux()
		mux.HandleFunc("POST "+GossipPath, func(w http.ResponseWriter, r *http.Request) {
			var d Digest
			if err := ReadJSON(w, r, &d, 1<<20); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			WriteJSON(w, http.StatusOK, node.c.HandleGossip(d))
		})
		node.ts = httptest.NewServer(mux)
		t.Cleanup(node.ts.Close)
	}
	for i := range nodes {
		var peers []string
		if i > 0 {
			peers = []string{nodes[0].ts.URL}
		}
		nodes[i].c = New(Config{
			NodeID:           nodeID(i),
			Addr:             nodes[i].ts.URL,
			Peers:            peers,
			GossipInterval:   10 * time.Millisecond,
			SuspicionTimeout: 50 * time.Millisecond,
			EvictTimeout:     200 * time.Millisecond,
			Now:              clock.Now,
			Logf:             t.Logf,
		})
	}
	return nodes
}

func nodeID(i int) string { return string(rune('a'+i)) + "-node" }

func converge(t *testing.T, nodes []*testNode, rounds int) {
	t.Helper()
	ctx := context.Background()
	for r := 0; r < rounds; r++ {
		for _, n := range nodes {
			if err := n.c.GossipOnce(ctx); err != nil {
				t.Logf("round %d: %v", r, err)
			}
		}
	}
}

func TestGossipJoinConverges(t *testing.T) {
	clock := newFakeClock()
	nodes := newTestCluster(t, 3, clock)
	converge(t, nodes, 6)
	for i, n := range nodes {
		members := n.c.Members()
		if len(members) != 3 {
			t.Fatalf("node %d sees %d members (%v), want 3", i, len(members), members)
		}
		for _, m := range members {
			if m.State != StateAlive {
				t.Fatalf("node %d sees %s as %s, want alive", i, m.ID, m.State)
			}
		}
		if n.c.Ring().Len() != 3 {
			t.Fatalf("node %d ring has %d nodes, want 3", i, n.c.Ring().Len())
		}
	}
	// Every node agrees on ownership for any key.
	for _, key := range []string{"k1", "k2", "k3", "k4"} {
		want := nodes[0].c.Ring().Owners(key, 2)
		for i := 1; i < len(nodes); i++ {
			got := nodes[i].c.Ring().Owners(key, 2)
			if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
				t.Fatalf("ownership of %s disagrees: node0=%v node%d=%v", key, want, i, got)
			}
		}
	}
}

func TestFailureDetectionAndEviction(t *testing.T) {
	clock := newFakeClock()
	nodes := newTestCluster(t, 3, clock)
	converge(t, nodes, 6)

	// Kill node c (index 2): its HTTP endpoint goes away.
	dead := nodes[2]
	dead.ts.Close()

	ctx := context.Background()
	// Survivors gossip until one of them fails an exchange with the
	// dead node; failed exchanges mark it suspect, and gossip spreads
	// the suspicion.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_ = nodes[0].c.GossipOnce(ctx)
		_ = nodes[1].c.GossipOnce(ctx)
		n0, _ := nodes[0].c.Lookup(nodeID(2))
		n1, _ := nodes[1].c.Lookup(nodeID(2))
		if n0.State == StateSuspect && n1.State == StateSuspect {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("suspicion never spread: node0 sees %s, node1 sees %s", n0.State, n1.State)
		}
	}
	// Suspects are still ring members (benefit of the doubt).
	if nodes[0].c.Ring().Len() != 3 {
		t.Fatalf("suspect evicted from ring early: %v", nodes[0].c.Ring().Nodes())
	}

	// Past the suspicion timeout the node is dead and off the ring.
	clock.Advance(60 * time.Millisecond)
	nodes[0].c.Tick(clock.Now())
	nodes[1].c.Tick(clock.Now())
	if got := nodes[0].c.Ring().Nodes(); len(got) != 2 {
		t.Fatalf("ring after death = %v, want 2 nodes", got)
	}
	if nodes[0].c.Alive(nodeID(2)) {
		t.Fatal("dead node still reported alive")
	}

	// Past the evict timeout the entry is forgotten entirely.
	clock.Advance(250 * time.Millisecond)
	nodes[0].c.Tick(clock.Now())
	if _, ok := nodes[0].c.Lookup(nodeID(2)); ok {
		t.Fatal("dead node not evicted from membership")
	}
}

func TestIncarnationRefutesDeathRumour(t *testing.T) {
	clock := newFakeClock()
	nodes := newTestCluster(t, 2, clock)
	converge(t, nodes, 4)

	// Node a hears a rumour that it is dead at its own incarnation.
	self := nodes[0].c.Self()
	nodes[0].c.HandleGossip(Digest{
		From:  nodes[1].c.Self(),
		Nodes: []Node{{ID: self.ID, Addr: self.Addr, Incarnation: self.Incarnation, State: StateDead}},
	})
	after := nodes[0].c.Self()
	if after.Incarnation <= self.Incarnation {
		t.Fatalf("incarnation did not bump on refutation: %d -> %d", self.Incarnation, after.Incarnation)
	}
	// The bumped incarnation overrides the stale death on other nodes.
	converge(t, nodes, 4)
	seen, ok := nodes[1].c.Lookup(self.ID)
	if !ok || seen.State != StateAlive || seen.Incarnation != after.Incarnation {
		t.Fatalf("peer still believes rumour: %+v (want alive inc=%d)", seen, after.Incarnation)
	}
}

func TestBackgroundLoopConverges(t *testing.T) {
	clock := newFakeClock()
	nodes := newTestCluster(t, 3, clock)
	for _, n := range nodes {
		n.c.Start()
		defer n.c.Stop()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		ok := true
		for _, n := range nodes {
			if len(n.c.Members()) != 3 {
				ok = false
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("background gossip never converged: %d/%d/%d members",
				len(nodes[0].c.Members()), len(nodes[1].c.Members()), len(nodes[2].c.Members()))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStartStopIdempotent: chamd stops its cluster on either exit path,
// whether or not the gossip loop ever started. Stop on a cluster that
// never started returns at once and a later Start stays a no-op; Start
// twice runs one loop; Stop twice returns. A second loop, or a loop
// started after Stop, would close the done channel twice and panic.
func TestStartStopIdempotent(t *testing.T) {
	stop := func(c *Cluster) {
		t.Helper()
		done := make(chan struct{})
		go func() { c.Stop(); c.Stop(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("Stop blocked")
		}
	}
	cfg := Config{NodeID: "a-node", Addr: "http://a-node", GossipInterval: time.Millisecond}

	never := New(cfg)
	stop(never)
	never.Start()
	stop(never)

	twice := New(cfg)
	twice.Start()
	twice.Start()
	stop(twice)
}
