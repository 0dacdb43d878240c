package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"chameleon/internal/cluster"
	"chameleon/internal/config"
	"chameleon/internal/dse"
	"chameleon/internal/sim"
)

// Status-poll pacing for a sweep cell executing on a ring peer: start
// fast so short cells return promptly, then back off exponentially to
// the cap so long cells don't drown a large sweep in idle HTTP chatter
// (a 10 s cell costs ~13 polls instead of ~66 at a fixed 150 ms).
const (
	dseRemotePollStart = 150 * time.Millisecond
	dseRemotePollCap   = time.Second
)

// runDSE executes a design-space sweep job. Every expanded cell
// normalizes into a KindSim spec whose content hash keys the shared
// result cache, so cells are served (in order of preference) from the
// local cache, a ring peer's cache, a ring peer's worker pool (the
// cell's hash owner — a cluster shards the sweep), or an inline local
// simulation. Cells run inside this job's worker slot, never through
// the local pool, so a sweep cannot deadlock the pool that runs it.
func (s *Server) runDSE(ctx context.Context, j *Job) (any, error) {
	par := j.Spec.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	res, err := j.Spec.DSE.Run(ctx, dse.RunOptions{
		Parallelism: par,
		Progress:    j.setCellProgress,
		Evaluate: func(ctx context.Context, c dse.Cell) (dse.Eval, error) {
			return s.evalDSECell(ctx, j.Spec, c)
		},
	})
	if err != nil {
		return nil, err
	}
	s.metrics.DSECellsPruned.Add(int64(res.Pruned))
	return res, nil
}

// cellSpec normalizes one sweep cell into the KindSim spec that keys
// the content-addressed result cache. Shared simulation parameters
// (instructions, warm-up) come from the parent job; the cell's variant
// indices select concrete hierarchy / tier overlays from the sweep
// spec.
func cellSpec(parent JobSpec, c dse.Cell) (JobSpec, error) {
	cs := JobSpec{
		Kind:         KindSim,
		Policy:       c.Policy,
		Workload:     c.Workload,
		Ratio:        c.Ratio,
		Scale:        c.Scale,
		Seed:         c.Seed,
		Instructions: parent.Instructions,
		Warmup:       parent.Warmup,
	}
	if c.CacheVariant >= 0 {
		cs.CacheLevels = parent.DSE.CacheLevelVariants[c.CacheVariant]
	}
	if c.TierVariant >= 0 {
		cs.MemoryTiers = config.CloneTiers(parent.DSE.MemoryTierVariants[c.TierVariant])
	}
	return cs.Normalize()
}

// decodeEval turns cached result bytes back into an evaluation.
func decodeEval(b []byte, hash string, cached bool) (dse.Eval, error) {
	var r sim.Result
	if err := json.Unmarshal(b, &r); err != nil {
		return dse.Eval{}, fmt.Errorf("decode cached cell result %.12s: %w", hash, err)
	}
	return dse.Eval{Result: &r, Hash: hash, Cached: cached}, nil
}

// evalDSECell resolves one sweep cell: local cache, then peer cache,
// then execution on the cell's ring owner, then an inline local
// simulation (also the fallback whenever a peer path fails — a dead
// peer costs the sweep capacity, never a cell).
func (s *Server) evalDSECell(ctx context.Context, parent JobSpec, c dse.Cell) (dse.Eval, error) {
	cs, err := cellSpec(parent, c)
	if err != nil {
		return dse.Eval{}, err
	}
	hash := cs.Hash()
	if b, ok := s.cache.Get(hash); ok {
		s.metrics.DSECellsCached.Add(1)
		return decodeEval(b, hash, true)
	}
	if s.clustered() {
		owners := s.cl.Owners(hash, replication)
		selfOwned := false
		for _, o := range owners {
			if o.ID == s.selfID() {
				selfOwned = true
			}
		}
		if b, ok := s.peerCacheGet(hash, owners); ok {
			s.metrics.PeerCacheHits.Add(1)
			s.metrics.DSECellsCached.Add(1)
			s.cache.Put(hash, b)
			return decodeEval(b, hash, true)
		}
		if !selfOwned {
			if b, ok := s.runCellRemote(ctx, cs, owners); ok {
				s.metrics.DSECellsRemote.Add(1)
				s.cache.Put(hash, b)
				return decodeEval(b, hash, false)
			}
		}
	}

	o, err := cs.SimOptions()
	if err != nil {
		return dse.Eval{}, err
	}
	sys, err := sim.New(o)
	if err != nil {
		return dse.Eval{}, err
	}
	res, err := sys.RunContext(ctx, cs.Instructions)
	if err != nil {
		return dse.Eval{}, err
	}
	s.metrics.ObserveRun(res)
	s.metrics.DSECellsSimulated.Add(1)
	b, err := marshalResult(res)
	if err != nil {
		return dse.Eval{}, err
	}
	s.cache.Put(hash, b)
	if s.clustered() {
		go s.writeBackResult(hash, b)
	}
	return dse.Eval{Result: res, Hash: hash}, nil
}

// runCellRemote submits a cell's sim spec to its first reachable ring
// owner (with the forwarded loop guard, so the owner runs it locally
// and may offer it to work stealing), polls to a terminal state, and
// fetches the result bytes. ok=false on any failure: the caller
// simulates the cell locally instead.
func (s *Server) runCellRemote(ctx context.Context, cs JobSpec, owners []cluster.Node) ([]byte, bool) {
	self := s.selfID()
	for _, o := range owners {
		if o.ID == self || !s.cl.Alive(o.ID) {
			continue
		}
		cctx, cancel := context.WithTimeout(ctx, peerCallTimeout)
		var st JobStatus
		err := cluster.DoJSONHeader(cctx, s.cl.HTTPClient(), http.MethodPost,
			o.Addr+"/v1/jobs", map[string]string{cluster.ForwardedHeader: self}, cs, &st)
		cancel()
		if err != nil {
			s.cl.Membership().MarkFailed(o.ID)
			continue
		}
		poll := dseRemotePollStart
		for !st.State.Terminal() {
			select {
			case <-ctx.Done():
				s.cancelRemote(o.Addr, st.ID)
				return nil, false
			case <-time.After(poll):
			}
			poll = min(2*poll, dseRemotePollCap)
			cctx, cancel := context.WithTimeout(ctx, peerCallTimeout)
			perr := cluster.DoJSON(cctx, s.cl.HTTPClient(), http.MethodGet, o.Addr+"/v1/jobs/"+st.ID, nil, &st)
			cancel()
			if perr != nil {
				s.cl.Membership().MarkFailed(o.ID)
				return nil, false
			}
		}
		if st.State != StateDone {
			return nil, false
		}
		cctx, cancel = context.WithTimeout(ctx, peerCallTimeout)
		b, ok, err := cluster.GetBytes(cctx, s.cl.HTTPClient(), o.Addr+"/v1/jobs/"+st.ID+"/result")
		cancel()
		if err != nil || !ok {
			return nil, false
		}
		return b, true
	}
	return nil, false
}
