package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// NodeState is a member's health as seen by the local node.
type NodeState string

// Member health states. Alive nodes own ring segments; suspect nodes
// keep their segments (benefit of the doubt) until the suspicion
// timeout promotes them to dead; dead nodes are dropped from the ring
// and eventually evicted from the peer list entirely.
const (
	StateAlive   NodeState = "alive"
	StateSuspect NodeState = "suspect"
	StateDead    NodeState = "dead"
)

// rank orders states for same-incarnation merges: worse news wins, so
// a death observed anywhere propagates everywhere.
func (s NodeState) rank() int {
	switch s {
	case StateSuspect:
		return 1
	case StateDead:
		return 2
	default:
		return 0
	}
}

// Node is one cluster member on the wire. Incarnation is a per-node
// logical clock bumped only by the node itself (to refute rumours of
// its death); for a given incarnation the worst observed state wins.
type Node struct {
	ID          string    `json:"id"`
	Addr        string    `json:"addr"` // advertised base URL, e.g. http://10.0.0.1:8080
	Incarnation uint64    `json:"incarnation"`
	State       NodeState `json:"state"`
}

// supersedes reports whether observation n replaces o, an observation
// of the same node. A higher incarnation wins outright, and equal
// incarnations take the worse state. The remaining ties break on the
// state name and then on the address, so that every node keeps the
// same entry whatever order the gossip arrives in. A node restarted
// under the same ID on a new address produces such a tie; once it
// hears the rumour that its old address is unreachable, it refutes it
// with a higher incarnation.
func (n Node) supersedes(o Node) bool {
	if n.Incarnation != o.Incarnation {
		return n.Incarnation > o.Incarnation
	}
	if r, q := n.State.rank(), o.State.rank(); r != q {
		return r > q
	}
	if n.State != o.State {
		return n.State > o.State
	}
	return n.Addr > o.Addr
}

// Digest is the gossip wire format: the sender's identity plus its
// full versioned peer list (chamd clusters are small, so the digest
// is the whole view — no delta encoding needed).
type Digest struct {
	From  Node   `json:"from"`
	Nodes []Node `json:"nodes"`
}

// Config assembles a Cluster.
type Config struct {
	// NodeID uniquely names this node in the cluster (required).
	NodeID string
	// Addr is the base URL peers reach this node at (required), e.g.
	// "http://10.0.0.1:8080".
	Addr string
	// Peers seed the membership with other nodes' base URLs, contacted
	// before any node IDs are known.
	Peers []string
	// VirtualNodes per member on the ring (default DefaultVirtualNodes).
	VirtualNodes int
	// GossipInterval is the background exchange period (default 1s).
	GossipInterval time.Duration
	// SuspicionTimeout promotes suspect → dead (default 5×interval).
	SuspicionTimeout time.Duration
	// EvictTimeout removes dead entries from the view entirely
	// (default 10×suspicion), bounding resurrection-by-stale-gossip.
	EvictTimeout time.Duration
	// Client is used for all peer HTTP (default 5s-timeout client).
	Client *http.Client
	// Now supplies the clock (default time.Now); tests inject a fake
	// clock to drive suspicion and eviction deterministically.
	Now func() time.Time
	// Logf, if set, receives membership transitions.
	Logf func(format string, args ...any)
}

// Cluster is the local node's view of the cluster: push/pull gossip
// membership, its failure detector, and a consistent-hash ring kept in
// lockstep with it. Each gossip round sends the full versioned peer
// list to one random peer and merges the reply. Failed exchanges mark
// the target suspect; Tick promotes suspects to dead after the
// suspicion timeout and evicts long-dead entries. Whenever the
// ring-eligible member set changes, the ring is rebuilt and then the
// hook registered with SetOnChange fires, with no lock held (the
// server uses it to re-enqueue work owned by dead nodes).
type Cluster struct {
	cfg      Config
	ring     atomic.Pointer[Ring]
	onChange atomic.Pointer[func()]

	mu    sync.Mutex
	self  Node                  // State always alive; Incarnation bumps on refute
	peers map[string]*peerEntry // by node ID, self excluded
	seeds []string              // addrs not yet matched to a known peer
	rnd   *rand.Rand

	startOnce, stopOnce sync.Once
	stop, done          chan struct{}
}

type peerEntry struct {
	Node
	since time.Time // local time the current state was observed
}

// New builds a cluster view of one node plus its seed peers. No
// background goroutine runs until Start.
func New(cfg Config) *Cluster {
	if cfg.GossipInterval <= 0 {
		cfg.GossipInterval = time.Second
	}
	if cfg.SuspicionTimeout <= 0 {
		cfg.SuspicionTimeout = 5 * cfg.GossipInterval
	}
	if cfg.EvictTimeout <= 0 {
		cfg.EvictTimeout = 10 * cfg.SuspicionTimeout
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 5 * time.Second}
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	c := &Cluster{
		cfg:   cfg,
		self:  Node{ID: cfg.NodeID, Addr: cfg.Addr, State: StateAlive},
		peers: make(map[string]*peerEntry),
		rnd:   rand.New(rand.NewSource(int64(ringHash(cfg.NodeID)) ^ time.Now().UnixNano())),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	for _, s := range cfg.Peers {
		if s = strings.TrimRight(s, "/"); s != "" && s != cfg.Addr {
			c.seeds = append(c.seeds, s)
		}
	}
	c.rebuildLocked()
	return c
}

// SetOnChange registers a hook fired after every ring rebuild.
func (c *Cluster) SetOnChange(fn func()) { c.onChange.Store(&fn) }

// Ring returns the current consistent-hash ring (never nil).
func (c *Cluster) Ring() *Ring { return c.ring.Load() }

// HTTPClient returns the shared peer HTTP client.
func (c *Cluster) HTTPClient() *http.Client { return c.cfg.Client }

// Self returns the local node's current identity (alive, current
// incarnation).
func (c *Cluster) Self() Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.self
}

// Members returns every known node including self, sorted by ID.
func (c *Cluster) Members() []Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.viewLocked(false)
}

// viewLocked returns self plus every peer, sorted by ID; ringOnly
// leaves out the dead. Suspects stay on the ring until the suspicion
// timeout expires, so one dropped packet does not reshuffle ownership.
func (c *Cluster) viewLocked(ringOnly bool) []Node {
	out := make([]Node, 0, len(c.peers)+1)
	out = append(out, c.self)
	for _, p := range c.peers {
		if !ringOnly || p.State != StateDead {
			out = append(out, p.Node)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Lookup returns the current view of a node by ID.
func (c *Cluster) Lookup(id string) (Node, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id == c.self.ID {
		return c.self, true
	}
	if p, ok := c.peers[id]; ok {
		return p.Node, true
	}
	return Node{}, false
}

// Alive reports whether a node is ring-eligible (self, or a known
// peer not declared dead).
func (c *Cluster) Alive(id string) bool {
	n, ok := c.Lookup(id)
	return ok && n.State != StateDead
}

// Owners resolves up to n distinct owner nodes for a key: the first
// is the ring owner, the rest replicas. Nodes that have vanished from
// the membership between ring build and lookup are skipped.
func (c *Cluster) Owners(key string, n int) []Node {
	ids := c.Ring().Owners(key, n)
	out := make([]Node, 0, len(ids))
	for _, id := range ids {
		if node, ok := c.Lookup(id); ok {
			out = append(out, node)
		}
	}
	return out
}

// update applies fn to the view under the lock. When fn changed the
// ring-eligible set, the ring is rebuilt before the lock is released
// and the change hook fires after, with no lock held: the hook calls
// back into the cluster.
func (c *Cluster) update(fn func()) {
	c.mu.Lock()
	before := ringKey(c.viewLocked(true))
	fn()
	changed := ringKey(c.viewLocked(true)) != before
	if changed {
		c.rebuildLocked()
	}
	c.mu.Unlock()
	if hook := c.onChange.Load(); changed && hook != nil {
		(*hook)()
	}
}

// rebuildLocked recomputes the ring from the ring-eligible members.
func (c *Cluster) rebuildLocked() {
	members := c.viewLocked(true)
	ids := make([]string, len(members))
	for i, n := range members {
		ids[i] = n.ID
	}
	c.ring.Store(NewRing(c.cfg.VirtualNodes, ids))
}

// ringKey canonicalizes an ID-sorted member set for change detection.
func ringKey(nodes []Node) string {
	var b strings.Builder
	for _, n := range nodes {
		b.WriteString(n.ID + "@" + n.Addr + ",")
	}
	return b.String()
}

// digest returns the local view in wire form.
func (c *Cluster) digest() Digest {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Digest{From: c.self, Nodes: c.viewLocked(false)}
}

// HandleGossip merges a peer's pushed view and returns the local view
// for the pull half of the exchange.
func (c *Cluster) HandleGossip(d Digest) Digest {
	c.mergeDigest(d)
	return c.digest()
}

// mergeDigest merges the view a peer sent. The sender itself is folded
// in as alive: it just proved liveness by reaching us or answering.
func (c *Cluster) mergeDigest(d Digest) {
	d.From.State = StateAlive
	c.merge(append([]Node{d.From}, d.Nodes...))
}

// merge folds remote observations into the local view. Each peer keeps
// the observation that supersedes all others (see Node.supersedes), so
// merging is commutative and idempotent; rumours about self are
// refuted by bumping our incarnation.
func (c *Cluster) merge(nodes []Node) {
	c.update(func() {
		now := c.cfg.Now()
		for _, rn := range nodes {
			if rn.ID == "" || rn.ID == c.self.ID {
				// Gossip about us: anything but alive at our incarnation (or
				// later) is a rumour of our death — refute it by outliving it.
				if rn.ID == c.self.ID && rn.State != StateAlive && rn.Incarnation >= c.self.Incarnation {
					c.self.Incarnation = rn.Incarnation + 1
					c.cfg.Logf("cluster: refuting %s rumour, incarnation now %d", rn.State, c.self.Incarnation)
				}
				continue
			}
			cur, ok := c.peers[rn.ID]
			switch {
			case !ok:
				c.peers[rn.ID] = &peerEntry{Node: rn, since: now}
				c.cfg.Logf("cluster: learned %s (%s) %s inc=%d", rn.ID, rn.Addr, rn.State, rn.Incarnation)
			case rn.supersedes(cur.Node):
				if cur.State != rn.State {
					c.cfg.Logf("cluster: %s %s -> %s (inc %d -> %d)", rn.ID, cur.State, rn.State, cur.Incarnation, rn.Incarnation)
				}
				cur.Node = rn
				cur.since = now
			}
			// A resolved seed no longer needs blind contact.
			c.dropSeedLocked(rn.Addr)
		}
	})
}

func (c *Cluster) dropSeedLocked(addr string) {
	addr = strings.TrimRight(addr, "/")
	for i, s := range c.seeds {
		if s == addr {
			c.seeds = append(c.seeds[:i], c.seeds[i+1:]...)
			return
		}
	}
}

// MarkFailed records a failed direct exchange with a peer: alive
// becomes suspect at the peer's current incarnation. Gossip spreads
// the suspicion; the peer refutes it by bumping its incarnation.
func (c *Cluster) MarkFailed(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.peers[id]; ok && p.State == StateAlive {
		p.State = StateSuspect
		p.since = c.cfg.Now()
		c.cfg.Logf("cluster: %s unreachable, now suspect", id)
	}
}

// Tick advances the failure-detection state machine at time now:
// suspects past the suspicion timeout become dead (ring ownership
// reconverges here), and dead entries past the evict timeout are
// forgotten.
func (c *Cluster) Tick(now time.Time) {
	c.update(func() {
		for id, p := range c.peers {
			switch p.State {
			case StateSuspect:
				if now.Sub(p.since) >= c.cfg.SuspicionTimeout {
					p.State = StateDead
					p.since = now
					c.cfg.Logf("cluster: %s suspicion expired, now dead", id)
				}
			case StateDead:
				if now.Sub(p.since) >= c.cfg.EvictTimeout {
					delete(c.peers, id)
					c.cfg.Logf("cluster: %s evicted", id)
				}
			}
		}
	})
}

// gossipTarget picks one random exchange partner: a non-dead peer or
// an unresolved seed address. Returns ("", "") when there is no one
// to talk to.
func (c *Cluster) gossipTarget() (id, addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	type cand struct{ id, addr string }
	var cands []cand
	for _, p := range c.peers {
		if p.State != StateDead && p.Addr != "" {
			cands = append(cands, cand{p.ID, p.Addr})
		}
	}
	for _, s := range c.seeds {
		cands = append(cands, cand{"", s})
	}
	if len(cands) == 0 {
		return "", ""
	}
	// Sort for determinism before the seeded random pick (map order
	// above is randomized by the runtime).
	sort.Slice(cands, func(i, j int) bool { return cands[i].addr < cands[j].addr })
	p := cands[c.rnd.Intn(len(cands))]
	return p.id, p.addr
}

// GossipOnce performs one push/pull exchange with a random partner.
// Unreachable known peers are marked suspect. A round with no
// available partner is a no-op.
func (c *Cluster) GossipOnce(ctx context.Context) error {
	id, addr := c.gossipTarget()
	if addr == "" {
		return nil
	}
	var reply Digest
	if err := DoJSON(ctx, c.cfg.Client, http.MethodPost, addr+GossipPath, c.digest(), &reply); err != nil {
		if id != "" {
			c.MarkFailed(id)
		}
		return fmt.Errorf("cluster: gossip with %s: %w", addr, err)
	}
	c.mergeDigest(reply)
	return nil
}

// Start launches the background gossip loop: every interval, one
// exchange plus one failure-detection tick. Calls after the first,
// and calls after Stop, do nothing.
func (c *Cluster) Start() {
	c.startOnce.Do(func() { go c.loop() })
}

func (c *Cluster) loop() {
	defer close(c.done)
	t := time.NewTicker(c.cfg.GossipInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			ctx, cancel := context.WithTimeout(context.Background(), c.cfg.GossipInterval)
			if err := c.GossipOnce(ctx); err != nil {
				c.cfg.Logf("%v", err)
			}
			cancel()
			c.Tick(c.cfg.Now())
		}
	}
}

// Stop ends the background loop and waits for it to exit. It is safe
// to call more than once, and on a cluster that never started.
func (c *Cluster) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.startOnce.Do(func() { close(c.done) }) // never started: no loop to wait for
	<-c.done
}
