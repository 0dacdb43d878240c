package server

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"

	"chameleon/internal/cluster"
	"chameleon/internal/config"
	"chameleon/internal/dse"
	"chameleon/internal/sim"
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
		owners, selfOwned := s.ringOwners(hash)
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

// runCellRemote runs a cell's sim spec on its first reachable ring
// owner (with the forwarded loop guard, so the owner runs it locally
// and may offer it to work stealing), waits for it to end, and returns
// the result bytes. ok=false on any failure: the caller simulates the
// cell locally instead.
func (s *Server) runCellRemote(ctx context.Context, cs JobSpec, owners []cluster.Node) ([]byte, bool) {
	owner, st, ok := s.submitToOwner(ctx, cs, owners)
	if !ok {
		return nil, false
	}
	st, b, err := s.awaitPeerJob(ctx, owner.Addr, st, nil)
	if err != nil {
		if ctx.Err() != nil {
			s.cancelRemote(owner.Addr, st.ID)
		} else {
			s.cl.Membership().MarkFailed(owner.ID)
		}
	}
	return b, err == nil && st.State == StateDone
}
