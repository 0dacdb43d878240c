package server

import (
	"context"
	"encoding/json"
	"fmt"

	"chameleon/internal/cluster"
	"chameleon/internal/experiments"
	"chameleon/internal/sim"
)

// decodeResult turns cached result bytes back into a result.
func decodeResult(b []byte, hash string) (*sim.Result, error) {
	var r sim.Result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("decode cached cell result %.12s: %w", hash, err)
	}
	return &r, nil
}

// evalCell resolves one normalized cell of a sweep or a matrix, keyed
// by its hash in the result cache it shares with sim jobs: local
// cache, then peer cache, then execution on the cell's ring owner, then
// an inline local simulation (also the fallback whenever a peer path
// fails — a dead peer costs the job capacity, never a cell). cached
// reports a result a cache served. It is the experiments.Options
// Simulate step of matrix and dse jobs.
func (s *Server) evalCell(ctx context.Context, c experiments.Cell) (r *sim.Result, cached bool, err error) {
	hash := c.Hash()
	if b, ok := s.cache.Get(hash); ok {
		s.metrics.DSECellsCached.Add(1)
		r, err := decodeResult(b, hash)
		return r, true, err
	}
	if s.clustered() {
		owners, selfOwned := s.ringOwners(hash)
		if b, ok := s.peerCacheGet(hash, owners); ok {
			s.metrics.PeerCacheHits.Add(1)
			s.metrics.DSECellsCached.Add(1)
			s.cache.Put(hash, b)
			r, err := decodeResult(b, hash)
			return r, true, err
		}
		if !selfOwned && c.AutoNUMA == 0 { // the wire has no AutoNUMA field
			if b, ok := s.runCellRemote(ctx, c, owners); ok {
				s.metrics.DSECellsRemote.Add(1)
				s.cache.Put(hash, b)
				r, err := decodeResult(b, hash)
				return r, false, err
			}
		}
	}

	res, err := c.Run(ctx, nil)
	if err != nil {
		return nil, false, err
	}
	s.metrics.ObserveRun(res)
	s.metrics.DSECellsSimulated.Add(1)
	b, err := marshalResult(res)
	if err != nil {
		return nil, false, err
	}
	s.cache.Put(hash, b)
	if s.clustered() {
		go s.writeBackResult(hash, b)
	}
	return res, false, nil
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
