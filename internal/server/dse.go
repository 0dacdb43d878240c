package server

import (
	"context"
	"encoding/json"
	"fmt"

	"chameleon/internal/cluster"
	"chameleon/internal/dse"
	"chameleon/internal/experiments"
	"chameleon/internal/sim"
)

// runDSE executes a design-space sweep job. Each expanded cell becomes
// an experiments.Cell (experiments.SweepCell) and resolves through
// evalCell. Cells run inside this job's worker slot, never through the
// local pool, so a sweep cannot deadlock the pool that runs it.
func (s *Server) runDSE(ctx context.Context, j *Job) (any, error) {
	res, err := j.Spec.DSE.Run(ctx, dse.RunOptions{
		Parallelism: j.Spec.Parallelism,
		Progress:    j.setCellProgress,
		Evaluate: func(ctx context.Context, c dse.Cell) (dse.Eval, error) {
			cell, err := experiments.SweepCell(*j.Spec.DSE, c, j.Spec.Instructions, j.Spec.Warmup)
			if err != nil {
				return dse.Eval{}, err
			}
			return s.evalCell(ctx, cell)
		},
	})
	if err != nil {
		return nil, err
	}
	s.metrics.DSECellsPruned.Add(int64(res.Pruned))
	return res, nil
}

// decodeEval turns cached result bytes back into an evaluation.
func decodeEval(b []byte, hash string, cached bool) (dse.Eval, error) {
	var r sim.Result
	if err := json.Unmarshal(b, &r); err != nil {
		return dse.Eval{}, fmt.Errorf("decode cached cell result %.12s: %w", hash, err)
	}
	return dse.Eval{Result: &r, Hash: hash, Cached: cached}, nil
}

// evalCell resolves one normalized cell of a sweep or a matrix, keyed
// by its hash in the result cache it shares with sim jobs: local
// cache, then peer cache, then execution on the cell's ring owner, then
// an inline local simulation (also the fallback whenever a peer path
// fails — a dead peer costs the job capacity, never a cell).
func (s *Server) evalCell(ctx context.Context, c experiments.Cell) (dse.Eval, error) {
	hash := c.Hash()
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
		if !selfOwned && c.AutoNUMA == 0 { // the wire has no AutoNUMA field
			if b, ok := s.runCellRemote(ctx, c, owners); ok {
				s.metrics.DSECellsRemote.Add(1)
				s.cache.Put(hash, b)
				return decodeEval(b, hash, false)
			}
		}
	}

	res, err := c.Run(ctx, nil)
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

// runCellRemote runs a cell on its first reachable ring owner as the
// sim job its JSON spells (with the forwarded loop guard, so the owner
// runs it locally and may offer it to work stealing), waits for it to
// end, and returns the result bytes. ok=false on any failure: the
// caller simulates the cell locally instead.
func (s *Server) runCellRemote(ctx context.Context, c experiments.Cell, owners []cluster.Node) ([]byte, bool) {
	owner, st, ok := s.submitToOwner(ctx, c, owners)
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
