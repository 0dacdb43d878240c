package dse

import "fmt"

// Condemned is a pruned sweep's running decision: the axis values,
// keyed "axis=value", whose remaining cells are skipped without
// simulation (see Spec.PruneAfter).
type Condemned map[string]bool

// Update condemns each axis value that points, every cell of the sweep
// evaluated so far in index order, now rule out: a value with at least
// s.PruneAfter evaluated cells, every one strictly dominated by some
// evaluated cell, so none is on the running front. It reads the full
// point set, never the completion order, so the decision is
// deterministic at any concurrency. With PruneAfter 0 nothing is
// condemned.
func (cd Condemned) Update(s Spec, points []Point) {
	if s.PruneAfter <= 0 {
		return
	}
	dominatedByAny := make([]bool, len(points))
	for i := range points {
		for k := range points {
			if k != i && Dominates(points[k].Values, points[i].Values, s.Objectives) {
				dominatedByAny[i] = true
				break
			}
		}
	}
	type tally struct{ total, dominated int }
	counts := map[string]tally{}
	for i, p := range points {
		for _, ax := range axisNames {
			key := ax + "=" + axisValue(p.Cell, ax)
			t := counts[key]
			t.total++
			if dominatedByAny[i] {
				t.dominated++
			}
			counts[key] = t
		}
	}
	for key, t := range counts {
		if t.total >= s.PruneAfter && t.dominated == t.total {
			cd[key] = true
		}
	}
}

// Prunes reports whether c carries a condemned axis value.
func (cd Condemned) Prunes(c Cell) bool {
	for _, ax := range axisNames {
		if cd[ax+"="+axisValue(c, ax)] {
			return true
		}
	}
	return false
}

// axisNames are the cell axes the pruning heuristic tracks.
var axisNames = []string{"policy", "workload", "ratio", "scale", "seed", "cache_variant", "tier_variant"}

// axisValue renders one axis of a cell as a comparable string.
func axisValue(c Cell, axis string) string {
	switch axis {
	case "policy":
		return c.Policy
	case "workload":
		return c.Workload
	case "ratio":
		return fmt.Sprintf("%d", c.Ratio)
	case "scale":
		return fmt.Sprintf("%d", c.Scale)
	case "seed":
		return fmt.Sprintf("%d", c.Seed)
	case "cache_variant":
		return fmt.Sprintf("%d", c.CacheVariant)
	case "tier_variant":
		return fmt.Sprintf("%d", c.TierVariant)
	}
	panic("dse: unknown axis " + axis)
}
