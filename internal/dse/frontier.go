package dse

import "strconv"

// Frontier is a sweep's running Pareto front and the pruning decision
// it implies (see Spec.PruneAfter). A new point meets only the front:
// as Dominates is a strict partial order, whatever dominates it is on
// the front or dominated by a front point that then dominates it too,
// and a dominated point stays dominated.
type Frontier struct {
	spec      Spec
	front     []Point // in the order added
	dominated int
	tallies   map[axisKey]tally
	condemned map[axisKey]bool
}

// tally counts the added points that carry one axis value.
type tally struct{ total, dominated int }

// NewFrontier returns the empty frontier of a normalized spec.
func NewFrontier(s Spec) *Frontier {
	return &Frontier{spec: s, tallies: map[axisKey]tally{}, condemned: map[axisKey]bool{}}
}

// Add adds a wave of evaluated points in index order, then condemns
// each axis value that at least PruneAfter points carry, all of them
// dominated. Deciding only at wave boundaries, from the point set,
// makes the decision the same at any concurrency.
func (f *Frontier) Add(wave []Point) {
	for _, p := range wave {
		f.add(p)
	}
	for k, t := range f.tallies {
		if t.total >= f.spec.PruneAfter && t.dominated == t.total {
			f.condemned[k] = true
		}
	}
}

// add places p: off the front if a member dominates it, else on the
// front, which every member p dominates leaves. A point that a member
// dominates dominates no member, so an early return drops nothing.
func (f *Frontier) add(p Point) {
	f.count(p.Cell, 1, 0)
	kept := f.front[:0]
	for _, q := range f.front {
		switch {
		case Dominates(q.Values, p.Values, f.spec.Objectives):
			f.dominated++
			f.count(p.Cell, 0, 1)
			return
		case Dominates(p.Values, q.Values, f.spec.Objectives):
			f.dominated++
			f.count(q.Cell, 0, 1)
		default:
			kept = append(kept, q)
		}
	}
	f.front = append(kept, p)
}

// count adds to the tallies of c's axis values, if the sweep prunes.
func (f *Frontier) count(c Cell, total, dominated int) {
	if f.spec.PruneAfter <= 0 {
		return
	}
	for _, k := range axisKeys(c) {
		t := f.tallies[k]
		f.tallies[k] = tally{t.total + total, t.dominated + dominated}
	}
}

// Prunes reports whether c carries a condemned axis value.
func (f *Frontier) Prunes(c Cell) bool {
	for _, k := range axisKeys(c) {
		if f.condemned[k] {
			return true
		}
	}
	return false
}

// Front returns the points no added point strictly dominates, in the
// order they were added, and how many points are dominated.
func (f *Frontier) Front() (front []Point, dominated int) {
	return append([]Point(nil), f.front...), f.dominated
}

// axisKey is one value of one cell axis, the unit of pruning.
type axisKey struct{ axis, value string }

func axisKeys(c Cell) [7]axisKey {
	return [...]axisKey{
		{"policy", c.Policy},
		{"workload", c.Workload},
		{"ratio", strconv.Itoa(c.Ratio)},
		{"scale", strconv.FormatUint(c.Scale, 10)},
		{"seed", strconv.FormatUint(c.Seed, 10)},
		{"cache_variant", strconv.Itoa(c.CacheVariant)},
		{"tier_variant", strconv.Itoa(c.TierVariant)},
	}
}
