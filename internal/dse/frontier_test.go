package dse

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// palette holds the coordinates the order tests draw from: NaN, both
// infinities, both zeros and a few reals, so equal vectors, NaN-equal
// vectors and ties are common.
var palette = []float64{math.NaN(), math.Inf(-1), math.Inf(1), math.Copysign(0, -1), 0, 1, 2, 3}

// TestDominatesStrictPartialOrder is the precondition of the Frontier:
// comparing a new point with the front alone is exact only if
// Dominates is irreflexive, asymmetric and transitive under its NaN
// ordering. It checks every pair and triple of two-objective vectors
// over palette, in every sense combination.
func TestDominatesStrictPartialOrder(t *testing.T) {
	var vecs [][]float64
	for _, x := range palette {
		for _, y := range palette {
			vecs = append(vecs, []float64{x, y})
		}
	}
	for _, senses := range [][2]string{{SenseMax, SenseMax}, {SenseMax, SenseMin}, {SenseMin, SenseMax}, {SenseMin, SenseMin}} {
		objs := []Objective{{Key: "a", Sense: senses[0]}, {Key: "b", Sense: senses[1]}}
		dom := make([][]bool, len(vecs))
		for i, a := range vecs {
			dom[i] = make([]bool, len(vecs))
			for k, b := range vecs {
				dom[i][k] = Dominates(a, b, objs)
			}
		}
		for i, a := range vecs {
			if dom[i][i] {
				t.Fatalf("%v: %v dominates itself", senses, a)
			}
			for k, b := range vecs {
				if dom[i][k] && dom[k][i] {
					t.Fatalf("%v: %v and %v dominate each other", senses, a, b)
				}
				if !dom[i][k] {
					continue
				}
				for m, c := range vecs {
					if dom[k][m] && !dom[i][m] {
						t.Fatalf("%v: %v dominates %v and %v dominates %v, but not %v over %v", senses, a, b, b, c, a, c)
					}
				}
			}
		}
	}
}

// bruteFront is the definition of the front: the points no other
// point strictly dominates, in order, and how many the others are.
func bruteFront(points []Point, objs []Objective) (front []int, dominated int) {
	for i, p := range points {
		dom := false
		for k, q := range points {
			if k != i && Dominates(q.Values, p.Values, objs) {
				dom = true
				break
			}
		}
		if dom {
			dominated++
		} else {
			front = append(front, p.Cell.Index)
		}
	}
	return front, dominated
}

// bruteCondemn adds to condemned each axis value the points rule out
// by definition: at least pruneAfter points carry it and every one is
// dominated by another point, so none is on front.
func bruteCondemn(condemned map[axisKey]bool, points []Point, front []int, pruneAfter int) {
	if pruneAfter <= 0 {
		return
	}
	onFront := map[int]bool{}
	for _, i := range front {
		onFront[i] = true
	}
	total, dominated := map[axisKey]int{}, map[axisKey]int{}
	for _, p := range points {
		for _, k := range axisKeys(p.Cell) {
			total[k]++
			if !onFront[p.Cell.Index] {
				dominated[k]++
			}
		}
	}
	for k, n := range total {
		if n >= pruneAfter && dominated[k] == n {
			condemned[k] = true
		}
	}
}

// checkFrontier feeds waves through a Frontier as a sweep does,
// skipping the cells it prunes, and checks at every wave boundary that
// its pruning, front, dominated count and condemned set equal the
// definition's.
func checkFrontier(t *testing.T, objs []Objective, pruneAfter int, waves [][]Point) {
	t.Helper()
	f := NewFrontier(Spec{Objectives: objs, PruneAfter: pruneAfter})
	condemned := map[axisKey]bool{}
	var all []Point
	for w, wave := range waves {
		var kept []Point
		for _, p := range wave {
			want := false
			for _, k := range axisKeys(p.Cell) {
				want = want || condemned[k]
			}
			if got := f.Prunes(p.Cell); got != want {
				t.Fatalf("wave %d: Prunes(cell %d) = %v, want %v", w, p.Cell.Index, got, want)
			}
			if !want {
				kept = append(kept, p)
			}
		}
		f.Add(kept)
		all = append(all, kept...)
		want, wantDom := bruteFront(all, objs)
		bruteCondemn(condemned, all, want, pruneAfter)

		front, dominated := f.Front()
		var got []int
		for _, p := range front {
			got = append(got, p.Cell.Index)
		}
		if !slices.Equal(got, want) || dominated != wantDom {
			t.Fatalf("wave %d: front %v with %d dominated, want %v with %d", w, got, dominated, want, wantDom)
		}
		if !reflect.DeepEqual(f.condemned, condemned) {
			t.Fatalf("wave %d: condemned %v, want %v", w, f.condemned, condemned)
		}
	}
}

// decodeSweep turns bytes into objectives and waves of at most n
// points. The first byte picks the objective senses; then each point
// takes four bytes: a wave break, a policy, a workload and a seed from
// the first, and one palette coordinate from each of the other three.
func decodeSweep(data []byte, n int) ([]Objective, [][]Point) {
	if len(data) == 0 {
		return nil, nil
	}
	objs := make([]Objective, 3)
	for i := range objs {
		objs[i] = Objective{Key: string(rune('a' + i)), Sense: SenseMin}
		if data[0]>>i&1 == 1 {
			objs[i].Sense = SenseMax
		}
	}
	var waves [][]Point
	var wave []Point
	for i := 0; i+4 < len(data) && i < 4*n; i += 4 {
		b := data[1+i : 5+i]
		if b[0]&1 == 1 && len(wave) > 0 {
			waves, wave = append(waves, wave), nil
		}
		c := Cell{
			Index:    i / 4,
			Policy:   []string{"chameleon", "pom", "alloy"}[int(b[0]>>1)%3],
			Workload: []string{"bwaves", "mcf", "lbm"}[int(b[0]>>3)%3],
			Seed:     uint64(b[0]>>5) + 1,
		}
		vals := make([]float64, 3)
		for k := range vals {
			vals[k] = palette[int(b[1+k])%len(palette)]
		}
		wave = append(wave, Point{Cell: c, Values: vals})
	}
	if len(wave) > 0 {
		waves = append(waves, wave)
	}
	return objs, waves
}

// TestFrontierMatchesDefinition is the differential test of the
// Frontier against the brute-force definition over random sweeps:
// random points (NaN, ±Inf and duplicate vectors included) in random
// wave splits, with and without pruning.
func TestFrontierMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, 1+4*(1+rng.Intn(120)))
		rng.Read(data)
		objs, waves := decodeSweep(data, len(data))
		checkFrontier(t, objs, rng.Intn(5), waves)
	}
}

// FuzzFrontierMatchesDefinition is TestFrontierMatchesDefinition over
// fuzzed sweeps of up to 24 points: the brute-force check costs
// O(waves × points²), and small inputs keep the fuzzer fast.
func FuzzFrontierMatchesDefinition(f *testing.F) {
	f.Add([]byte{1, 0, 3, 4, 5, 1, 1, 1, 1, 2, 6, 6, 6, 0, 0, 0, 0}, uint8(1))
	f.Add([]byte{6, 3, 7, 7, 7, 5, 7, 7, 7, 1, 0, 7, 2, 11, 4, 4, 4, 0, 5, 6, 7}, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, pruneAfter uint8) {
		objs, waves := decodeSweep(data, 24)
		checkFrontier(t, objs, int(pruneAfter%8), waves)
	})
}
