package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
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

// MembershipOptions configure a Membership.
type MembershipOptions struct {
	// Self identifies the local node (ID and Addr required).
	Self Node
	// Seeds are peer base URLs to contact before any IDs are known.
	Seeds []string
	// GossipInterval is the background exchange period (default 1s).
	GossipInterval time.Duration
	// SuspicionTimeout promotes suspect → dead (default 5×interval).
	SuspicionTimeout time.Duration
	// EvictTimeout removes dead entries from the view entirely
	// (default 10×suspicion), bounding resurrection-by-stale-gossip.
	EvictTimeout time.Duration
	// Client performs gossip exchanges (default: 2s-timeout client).
	Client *http.Client
	// Now supplies the clock (default time.Now); tests inject a fake
	// clock to drive suspicion/eviction deterministically.
	Now func() time.Time
	// OnChange is invoked (synchronously, without locks held) whenever
	// the set of ring-eligible nodes changes.
	OnChange func()
	// Logf, if set, receives membership transitions.
	Logf func(format string, args ...any)
}

func (o MembershipOptions) withDefaults() MembershipOptions {
	if o.GossipInterval <= 0 {
		o.GossipInterval = time.Second
	}
	if o.SuspicionTimeout <= 0 {
		o.SuspicionTimeout = 5 * o.GossipInterval
	}
	if o.EvictTimeout <= 0 {
		o.EvictTimeout = 10 * o.SuspicionTimeout
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 2 * time.Second}
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Membership maintains the local node's converged view of the
// cluster via push/pull gossip: each round the node sends its full
// versioned peer list to one random peer and merges the reply.
// Failed exchanges mark the target suspect; Tick promotes suspects to
// dead after the suspicion timeout and evicts long-dead entries.
type Membership struct {
	opts MembershipOptions

	mu    sync.Mutex
	self  Node                  // State always alive; Incarnation bumps on refute
	peers map[string]*peerEntry // by node ID, self excluded
	seeds []string              // addrs not yet matched to a known peer
	rnd   *rand.Rand

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

type peerEntry struct {
	Node
	since time.Time // local time the current state was observed
}

// NewMembership builds a membership view seeded with opts.Seeds. No
// background goroutine runs until Start.
func NewMembership(opts MembershipOptions) *Membership {
	opts = opts.withDefaults()
	opts.Self.State = StateAlive
	m := &Membership{
		opts:  opts,
		self:  opts.Self,
		peers: make(map[string]*peerEntry),
		rnd:   rand.New(rand.NewSource(int64(ringHash(opts.Self.ID)) ^ time.Now().UnixNano())),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	for _, s := range opts.Seeds {
		if s = strings.TrimRight(s, "/"); s != "" && s != opts.Self.Addr {
			m.seeds = append(m.seeds, s)
		}
	}
	return m
}

// Self returns the local node's current identity (alive, current
// incarnation).
func (m *Membership) Self() Node {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.self
}

// Members returns every known node including self, sorted by ID.
func (m *Membership) Members() []Node {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Node, 0, len(m.peers)+1)
	out = append(out, m.self)
	for _, p := range m.peers {
		out = append(out, p.Node)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// RingMembers returns the ring-eligible nodes (self plus every peer
// not yet declared dead), sorted by ID. Suspects keep their segments
// until the suspicion timeout expires so a single dropped packet does
// not reshuffle ownership.
func (m *Membership) RingMembers() []Node {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := m.ringMembersLocked()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (m *Membership) ringMembersLocked() []Node {
	out := make([]Node, 0, len(m.peers)+1)
	out = append(out, m.self)
	for _, p := range m.peers {
		if p.State != StateDead {
			out = append(out, p.Node)
		}
	}
	return out
}

// Lookup returns the current view of a node by ID.
func (m *Membership) Lookup(id string) (Node, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if id == m.self.ID {
		return m.self, true
	}
	if p, ok := m.peers[id]; ok {
		return p.Node, true
	}
	return Node{}, false
}

// Alive reports whether a node is ring-eligible (self, or a known
// peer not declared dead).
func (m *Membership) Alive(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if id == m.self.ID {
		return true
	}
	p, ok := m.peers[id]
	return ok && p.State != StateDead
}

// snapshotLocked renders the digest node list: self plus all peers.
func (m *Membership) snapshotLocked() []Node {
	out := make([]Node, 0, len(m.peers)+1)
	out = append(out, m.self)
	for _, p := range m.peers {
		out = append(out, p.Node)
	}
	return out
}

// Digest returns the local view in wire form.
func (m *Membership) Digest() Digest {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Digest{From: m.self, Nodes: m.snapshotLocked()}
}

// HandleGossip merges a peer's pushed view and returns the local view
// for the pull half of the exchange. The sender itself is folded in
// as alive: it just proved liveness by reaching us.
func (m *Membership) HandleGossip(d Digest) Digest {
	from := d.From
	from.State = StateAlive
	nodes := append([]Node{from}, d.Nodes...)
	m.merge(nodes)
	return m.Digest()
}

// merge folds remote observations into the local view, returning
// through OnChange when the ring-eligible set changed. Each peer keeps
// the observation that supersedes all others (see Node.supersedes), so
// merging is commutative and idempotent; rumours about self are refuted
// by bumping our incarnation.
func (m *Membership) merge(nodes []Node) {
	m.mu.Lock()
	before := ringKeyLocked(m.ringMembersLocked())
	now := m.opts.Now()
	for _, rn := range nodes {
		if rn.ID == "" || rn.ID == m.self.ID {
			// Gossip about us: anything but alive at our incarnation (or
			// later) is a rumour of our death — refute it by outliving it.
			if rn.ID == m.self.ID && rn.State != StateAlive && rn.Incarnation >= m.self.Incarnation {
				m.self.Incarnation = rn.Incarnation + 1
				m.opts.Logf("cluster: refuting %s rumour, incarnation now %d", rn.State, m.self.Incarnation)
			}
			continue
		}
		cur, ok := m.peers[rn.ID]
		switch {
		case !ok:
			m.peers[rn.ID] = &peerEntry{Node: rn, since: now}
			m.opts.Logf("cluster: learned %s (%s) %s inc=%d", rn.ID, rn.Addr, rn.State, rn.Incarnation)
		case rn.supersedes(cur.Node):
			if cur.State != rn.State {
				m.opts.Logf("cluster: %s %s -> %s (inc %d -> %d)", rn.ID, cur.State, rn.State, cur.Incarnation, rn.Incarnation)
			}
			cur.Node = rn
			cur.since = now
		}
		// A resolved seed no longer needs blind contact.
		m.dropSeedLocked(rn.Addr)
	}
	after := ringKeyLocked(m.ringMembersLocked())
	m.mu.Unlock()
	if before != after && m.opts.OnChange != nil {
		m.opts.OnChange()
	}
}

func (m *Membership) dropSeedLocked(addr string) {
	addr = strings.TrimRight(addr, "/")
	for i, s := range m.seeds {
		if s == addr {
			m.seeds = append(m.seeds[:i], m.seeds[i+1:]...)
			return
		}
	}
}

// ringKeyLocked canonicalizes a member set for change detection.
func ringKeyLocked(nodes []Node) string {
	ids := make([]string, len(nodes))
	for i, n := range nodes {
		ids[i] = n.ID + "@" + n.Addr
	}
	sort.Strings(ids)
	return strings.Join(ids, ",")
}

// MarkFailed records a failed direct exchange with a peer: alive
// becomes suspect at the peer's current incarnation. Gossip spreads
// the suspicion; the peer refutes it by bumping its incarnation.
func (m *Membership) MarkFailed(id string) {
	m.mu.Lock()
	p, ok := m.peers[id]
	if ok && p.State == StateAlive {
		p.State = StateSuspect
		p.since = m.opts.Now()
		m.opts.Logf("cluster: %s unreachable, now suspect", id)
	}
	m.mu.Unlock()
}

// Tick advances the failure-detection state machine at time now:
// suspects past the suspicion timeout become dead (triggering
// OnChange: ring ownership reconverges here), and dead entries past
// the evict timeout are forgotten.
func (m *Membership) Tick(now time.Time) {
	m.mu.Lock()
	before := ringKeyLocked(m.ringMembersLocked())
	for id, p := range m.peers {
		switch p.State {
		case StateSuspect:
			if now.Sub(p.since) >= m.opts.SuspicionTimeout {
				p.State = StateDead
				p.since = now
				m.opts.Logf("cluster: %s suspicion expired, now dead", id)
			}
		case StateDead:
			if now.Sub(p.since) >= m.opts.EvictTimeout {
				delete(m.peers, id)
				m.opts.Logf("cluster: %s evicted", id)
			}
		}
	}
	after := ringKeyLocked(m.ringMembersLocked())
	m.mu.Unlock()
	if before != after && m.opts.OnChange != nil {
		m.opts.OnChange()
	}
}

// gossipTarget picks one random exchange partner: a non-dead peer or
// an unresolved seed address. Returns ("", "") when there is no one
// to talk to.
func (m *Membership) gossipTarget() (id, addr string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	type cand struct{ id, addr string }
	var cands []cand
	for _, p := range m.peers {
		if p.State != StateDead && p.Addr != "" {
			cands = append(cands, cand{p.ID, p.Addr})
		}
	}
	for _, s := range m.seeds {
		cands = append(cands, cand{"", s})
	}
	if len(cands) == 0 {
		return "", ""
	}
	// Sort for determinism before the seeded random pick (map order
	// above is randomized by the runtime).
	sort.Slice(cands, func(i, j int) bool { return cands[i].addr < cands[j].addr })
	c := cands[m.rnd.Intn(len(cands))]
	return c.id, c.addr
}

// GossipOnce performs one push/pull exchange with a random partner.
// Unreachable known peers are marked suspect. A round with no
// available partner is a no-op.
func (m *Membership) GossipOnce(ctx context.Context) error {
	id, addr := m.gossipTarget()
	if addr == "" {
		return nil
	}
	var reply Digest
	err := DoJSON(ctx, m.opts.Client, http.MethodPost, addr+GossipPath, m.Digest(), &reply)
	if err != nil {
		if id != "" {
			m.MarkFailed(id)
		}
		return fmt.Errorf("cluster: gossip with %s: %w", addr, err)
	}
	from := reply.From
	from.State = StateAlive
	m.merge(append([]Node{from}, reply.Nodes...))
	return nil
}

// Start launches the background gossip loop: every interval, one
// exchange plus one failure-detection tick. Stop ends it.
func (m *Membership) Start() {
	go func() {
		defer close(m.done)
		t := time.NewTicker(m.opts.GossipInterval)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				ctx, cancel := context.WithTimeout(context.Background(), m.opts.GossipInterval)
				if err := m.GossipOnce(ctx); err != nil {
					m.opts.Logf("%v", err)
				}
				cancel()
				m.Tick(m.opts.Now())
			}
		}
	}()
}

// Stop terminates the background loop started by Start and waits for
// it to exit. Safe to call more than once; a Membership that was
// never started must not be stopped.
func (m *Membership) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
	<-m.done
}
