package dse

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"chameleon/internal/config"
	"chameleon/internal/stats"
)

func TestNormalizeDefaults(t *testing.T) {
	s, err := Spec{}.Normalize()
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	if !reflect.DeepEqual(s.Policies, defaultPolicies()) {
		t.Errorf("default policies = %v", s.Policies)
	}
	if len(s.Workloads) != 14 {
		t.Errorf("default workloads = %d, want the 14 Table II profiles", len(s.Workloads))
	}
	if !reflect.DeepEqual(s.Ratios, []int{0}) || !reflect.DeepEqual(s.Scales, []uint64{256}) || !reflect.DeepEqual(s.Seeds, []uint64{42}) {
		t.Errorf("default ratios/scales/seeds = %v %v %v", s.Ratios, s.Scales, s.Seeds)
	}
	if !reflect.DeepEqual(s.Objectives, DefaultObjectives()) {
		t.Errorf("default objectives = %v", s.Objectives)
	}
}

func TestNormalizeErrors(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"unknown policy", Spec{Policies: []string{"no-such-policy"}}, "no-such-policy"},
		{"unknown workload", Spec{Workloads: []string{"no-such-workload"}}, "no-such-workload"},
		{"replay workload", Spec{Workloads: []string{"replay:/tmp/x.cmtr"}}, "trace replays"},
		{"non-power-of-two scale", Spec{Scales: []uint64{100}}, "power of two"},
		{"zero seed", Spec{Seeds: []uint64{0}}, "seed 0"},
		{"empty cache variant", Spec{CacheLevelVariants: [][]config.CacheLevelConfig{{}}}, "cache_level_variants[0]"},
		{"empty tier variant", Spec{MemoryTierVariants: [][]config.MemTierConfig{{}}}, "memory_tier_variants[0]"},
		{"bad objective sense", Spec{Objectives: []Objective{{Key: "ipc_geomean", Sense: "up"}}}, "sense"},
		{"empty objective key", Spec{Objectives: []Objective{{Sense: SenseMax}}}, "no key"},
		{"duplicate objective", Spec{Objectives: []Objective{{Key: "ipc_geomean", Sense: SenseMax}, {Key: "ipc_geomean", Sense: SenseMin}}}, "duplicate"},
		{"negative prune", Spec{PruneAfter: -1}, "prune_after"},
		{"bad ratio", Spec{Ratios: []int{-3}}, "ratio"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.spec.Normalize(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Normalize = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestExpandDeterministicDenseAndTierSkip(t *testing.T) {
	twoTier := config.Default(256).MemoryTiers
	threeTier := config.Default(256).WithNVMTier(64 << 20).MemoryTiers
	s := Spec{
		Policies:           []string{"chameleon", "hwc"}, // hwc needs >= 3 tiers
		Workloads:          []string{"bwaves", "mcf"},
		Seeds:              []uint64{1, 2},
		MemoryTierVariants: [][]config.MemTierConfig{twoTier, threeTier},
	}
	cells, err := s.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	// Two-tier variant skips hwc: 1×2×2 = 4 cells; three-tier runs both
	// policies: 2×2×2 = 8 cells.
	if len(cells) != 12 {
		t.Fatalf("expanded %d cells, want 12", len(cells))
	}
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d has index %d; indices must be dense", i, c.Index)
		}
		if c.TierVariant == 0 && c.Policy == "hwc" {
			t.Fatalf("cell %d runs hwc on the two-tier variant", i)
		}
	}
	again, err := s.Expand()
	if err != nil {
		t.Fatalf("Expand again: %v", err)
	}
	if !reflect.DeepEqual(cells, again) {
		t.Error("Expand is not deterministic")
	}
}

func TestExpandEmptySweepError(t *testing.T) {
	twoTier := config.Default(256).MemoryTiers
	s := Spec{
		Policies:           []string{"hwc"},
		Workloads:          []string{"bwaves"},
		MemoryTierVariants: [][]config.MemTierConfig{twoTier},
	}
	if _, err := s.Expand(); err == nil || !strings.Contains(err.Error(), "no runnable cells") {
		t.Errorf("Expand = %v, want empty-sweep error", err)
	}
}

func TestValues(t *testing.T) {
	snap := stats.Snapshot{
		"ipc_geomean":            1.5,
		"mem_hbm.capacity_bytes": 100,
		"mem_ddr.capacity_bytes": 300,
		"mem_hbm.energy_nj":      7,
		"mem_ddr.energy_nj":      11,
	}
	vals, err := Values(snap, DefaultObjectives())
	if err != nil {
		t.Fatalf("Values: %v", err)
	}
	if want := []float64{1.5, 400, 18}; !reflect.DeepEqual(vals, want) {
		t.Errorf("Values = %v, want %v", vals, want)
	}
	if _, err := Values(snap, []Objective{{Key: "no_such_key", Sense: SenseMax}}); err == nil || !strings.Contains(err.Error(), "no_such_key") {
		t.Errorf("missing key error = %v", err)
	}
}

func TestDominates(t *testing.T) {
	objs := []Objective{{Key: "a", Sense: SenseMax}, {Key: "b", Sense: SenseMin}}
	cases := []struct {
		a, b []float64
		want bool
	}{
		{[]float64{2, 1}, []float64{1, 2}, true},           // better on both
		{[]float64{2, 2}, []float64{1, 2}, true},           // better on one, equal other
		{[]float64{1, 2}, []float64{1, 2}, false},          // equal
		{[]float64{2, 3}, []float64{1, 2}, false},          // trade-off
		{[]float64{1, 2}, []float64{2, 1}, false},          // worse
		{[]float64{2, 1}, []float64{1}, false},             // length mismatch
		{[]float64{2, 1}, []float64{math.NaN(), 2}, true},  // NaN is always dominated
		{[]float64{math.NaN(), 1}, []float64{1, 2}, false}, // NaN never dominates
	}
	for i, tc := range cases {
		if got := Dominates(tc.a, tc.b, objs); got != tc.want {
			t.Errorf("case %d: Dominates(%v, %v) = %v, want %v", i, tc.a, tc.b, got, tc.want)
		}
	}
}

// TestFrontProperty is the Pareto property test: over random point
// clouds, the front and dominated sets partition the input, no front
// point is dominated by any point, and every excluded point is
// dominated by some point.
func TestFrontProperty(t *testing.T) {
	objs := DefaultObjectives()
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(60)
		points := make([]Point, n)
		for i := range points {
			points[i] = Point{
				Cell:   Cell{Index: i},
				Values: []float64{rng.Float64(), float64(rng.Intn(4)), float64(rng.Intn(4))},
			}
		}
		front, dominated := Front(points, objs)
		if len(front)+dominated != n {
			t.Fatalf("trial %d: front %d + dominated %d != %d points", trial, len(front), dominated, n)
		}
		onFront := map[int]bool{}
		for _, f := range front {
			onFront[f.Cell.Index] = true
			for _, p := range points {
				if Dominates(p.Values, f.Values, objs) {
					t.Fatalf("trial %d: front point %d is dominated by point %d", trial, f.Cell.Index, p.Cell.Index)
				}
			}
		}
		for _, p := range points {
			if onFront[p.Cell.Index] {
				continue
			}
			dom := false
			for _, q := range points {
				if Dominates(q.Values, p.Values, objs) {
					dom = true
					break
				}
			}
			if !dom {
				t.Fatalf("trial %d: point %d excluded from the front but dominated by nothing", trial, p.Cell.Index)
			}
		}
	}
}
