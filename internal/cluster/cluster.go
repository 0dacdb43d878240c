package cluster

import (
	"context"
	"net/http"
	"sync/atomic"
	"time"
)

// Config assembles a Cluster.
type Config struct {
	// NodeID uniquely names this node in the cluster (required).
	NodeID string
	// Addr is the base URL peers reach this node at (required), e.g.
	// "http://10.0.0.1:8080".
	Addr string
	// Peers seed the membership with other nodes' base URLs.
	Peers []string
	// VirtualNodes per member on the ring (default DefaultVirtualNodes).
	VirtualNodes int
	// GossipInterval / SuspicionTimeout / EvictTimeout tune failure
	// detection (see MembershipOptions).
	GossipInterval   time.Duration
	SuspicionTimeout time.Duration
	EvictTimeout     time.Duration
	// Client is used for all peer HTTP (default 5s-timeout client).
	Client *http.Client
	// Now supplies the clock (default time.Now).
	Now func() time.Time
	// Logf, if set, receives membership transitions.
	Logf func(format string, args ...any)
}

// Cluster composes gossip membership with a consistent-hash ring kept
// in lockstep: whenever the ring-eligible member set changes, the
// ring is rebuilt and the registered OnChange hook fires (the server
// uses it to re-enqueue work owned by dead nodes).
type Cluster struct {
	cfg      Config
	mem      *Membership
	ring     atomic.Pointer[Ring]
	onChange atomic.Pointer[func()]
	started  atomic.Bool
}

// New builds a cluster view of one node plus its seed peers. No
// background goroutine runs until Start.
func New(cfg Config) *Cluster {
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 5 * time.Second}
	}
	c := &Cluster{cfg: cfg}
	c.mem = NewMembership(MembershipOptions{
		Self:             Node{ID: cfg.NodeID, Addr: cfg.Addr},
		Seeds:            cfg.Peers,
		GossipInterval:   cfg.GossipInterval,
		SuspicionTimeout: cfg.SuspicionTimeout,
		EvictTimeout:     cfg.EvictTimeout,
		Client:           cfg.Client,
		Now:              cfg.Now,
		Logf:             cfg.Logf,
		OnChange:         c.rebuild,
	})
	c.rebuild()
	return c
}

// rebuild recomputes the ring from the current ring-eligible members
// and notifies the server hook.
func (c *Cluster) rebuild() {
	members := c.mem.RingMembers()
	ids := make([]string, len(members))
	for i, n := range members {
		ids[i] = n.ID
	}
	c.ring.Store(NewRing(c.cfg.VirtualNodes, ids))
	if fn := c.onChange.Load(); fn != nil {
		(*fn)()
	}
}

// SetOnChange registers a hook fired after every ring rebuild.
func (c *Cluster) SetOnChange(fn func()) { c.onChange.Store(&fn) }

// Self returns the local node's identity.
func (c *Cluster) Self() Node { return c.mem.Self() }

// Membership exposes the underlying gossip state.
func (c *Cluster) Membership() *Membership { return c.mem }

// Ring returns the current consistent-hash ring (never nil).
func (c *Cluster) Ring() *Ring { return c.ring.Load() }

// HTTPClient returns the shared peer HTTP client.
func (c *Cluster) HTTPClient() *http.Client { return c.cfg.Client }

// Members returns every known node including self.
func (c *Cluster) Members() []Node { return c.mem.Members() }

// Alive reports whether a node is ring-eligible.
func (c *Cluster) Alive(id string) bool { return c.mem.Alive(id) }

// Owners resolves up to n distinct owner nodes for a key: the first
// is the ring owner, the rest replicas. Nodes that have vanished from
// the membership between ring build and lookup are skipped.
func (c *Cluster) Owners(key string, n int) []Node {
	ids := c.Ring().Owners(key, n)
	out := make([]Node, 0, len(ids))
	for _, id := range ids {
		if node, ok := c.mem.Lookup(id); ok {
			out = append(out, node)
		}
	}
	return out
}

// HandleGossip serves the receiving half of a push/pull exchange.
func (c *Cluster) HandleGossip(d Digest) Digest { return c.mem.HandleGossip(d) }

// GossipOnce runs one push/pull exchange (see Membership.GossipOnce).
func (c *Cluster) GossipOnce(ctx context.Context) error { return c.mem.GossipOnce(ctx) }

// Tick advances failure detection at time now.
func (c *Cluster) Tick(now time.Time) { c.mem.Tick(now) }

// Start launches the background gossip loop.
func (c *Cluster) Start() {
	if c.started.CompareAndSwap(false, true) {
		c.mem.Start()
	}
}

// Stop halts the background loop, if one was started.
func (c *Cluster) Stop() {
	if c.started.Load() {
		c.mem.Stop()
	}
}
