package dse

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"chameleon/internal/stats"
)

// Point is one evaluated cell: its objective vector (spec objective
// order) plus provenance — the content hash of the cell's normalized
// job spec and whether the result was served from the
// content-addressed cache instead of simulated.
type Point struct {
	Cell   Cell      `json:"cell"`
	Values []float64 `json:"values"`
	Hash   string    `json:"hash,omitempty"`
	Cached bool      `json:"cached,omitempty"`
}

// Result is a sweep's structured outcome: the Pareto front plus every
// evaluated point (with per-cell provenance hashes) and the sweep's
// accounting. Front and Points are in cell-index order, so the
// marshaled JSON is deterministic; FrontSignature strips the
// cache/hash provenance for byte-level front comparisons.
type Result struct {
	Objectives []Objective `json:"objectives"`
	TotalCells int         `json:"total_cells"`
	Evaluated  int         `json:"evaluated"`
	Cached     int         `json:"cached"`
	Pruned     int         `json:"pruned"`
	Dominated  int         `json:"dominated"`
	Front      []Point     `json:"front"`
	Points     []Point     `json:"points"`
}

// FrontSignature renders the front's design-space content — cells and
// objective vectors, without cache/hash provenance — as deterministic
// JSON. Two executions of the same sweep must agree on it byte for
// byte whatever their concurrency, per-cell thread count, or cache
// temperature; pruned execution agrees with full enumeration on
// sweeps where the heuristic only discards dominated regions.
func (r *Result) FrontSignature() string {
	type sig struct {
		Cell   Cell      `json:"cell"`
		Values []float64 `json:"values"`
	}
	sigs := make([]sig, len(r.Front))
	for i, p := range r.Front {
		sigs[i] = sig{Cell: p.Cell, Values: p.Values}
	}
	b, err := json.Marshal(sigs)
	if err != nil {
		// Plain data; Marshal cannot fail.
		panic(fmt.Sprintf("dse: marshal front signature: %v", err))
	}
	return string(b)
}

// better reports whether v beats w under sense. NaNs never beat
// anything, so a cell missing an objective can only be dominated.
func better(v, w float64, sense string) bool {
	if sense == SenseMax {
		return v > w
	}
	return v < w
}

// Dominates reports strict Pareto dominance of vector a over b: a is
// at least as good on every objective and strictly better on at least
// one. Equal vectors dominate in neither direction. A NaN coordinate
// loses to any real value in either sense (a cell missing an objective
// can only be dominated, never dominate), so Dominates is a strict
// partial order, as a Frontier needs. It allocates nothing.
func Dominates(a, b []float64, objs []Objective) bool {
	if len(a) != len(objs) || len(b) != len(objs) {
		return false
	}
	strict := false
	for i, o := range objs {
		an, bn := math.IsNaN(a[i]), math.IsNaN(b[i])
		switch {
		case an && bn:
			continue // equal in the "both missing" sense
		case an:
			return false // a is worse here
		case bn:
			strict = true // b is worse here
		case better(b[i], a[i], o.Sense):
			return false
		case better(a[i], b[i], o.Sense):
			strict = true
		}
	}
	return strict
}

// Front applies the strict-dominance Pareto filter, as a Frontier fed
// points as one wave: it returns the points no other point strictly
// dominates, in input order, plus the number of dominated points.
func Front(points []Point, objs []Objective) (front []Point, dominated int) {
	f := NewFrontier(Spec{Objectives: objs})
	f.Add(points)
	return f.Front()
}

// Values extracts the objective vector from a run's unified stats
// snapshot. Plain keys index the snapshot directly; the derived
// KeyTotalCapacity / KeyTotalEnergy keys sum the per-tier
// "mem_<name>.capacity_bytes" / "mem_<name>.energy_nj" counters, so
// they follow whatever memory stack the cell configured. A missing
// key is an error naming it — a sweep must not silently optimise
// zeros.
func Values(snap stats.Snapshot, objs []Objective) ([]float64, error) {
	out := make([]float64, len(objs))
	for i, o := range objs {
		switch o.Key {
		case KeyTotalCapacity:
			out[i] = sumTierSuffix(snap, ".capacity_bytes")
		case KeyTotalEnergy:
			out[i] = sumTierSuffix(snap, ".energy_nj")
		default:
			v, ok := snap[o.Key]
			if !ok {
				return nil, fmt.Errorf("dse: objective key %q not present in the result snapshot", o.Key)
			}
			out[i] = v
		}
	}
	return out, nil
}

// sumTierSuffix sums every per-tier counter with the given suffix
// (tier namespaces are "mem_<name>").
func sumTierSuffix(snap stats.Snapshot, suffix string) float64 {
	var total float64
	for k, v := range snap {
		if strings.HasPrefix(k, "mem_") && strings.HasSuffix(k, suffix) {
			total += v
		}
	}
	return total
}
