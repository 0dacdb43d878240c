package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"sync"
	"testing"

	"chameleon/internal/dse"
	"chameleon/internal/sim"
)

func TestRunDSE(t *testing.T) {
	o := Options{
		Scale:        1024,
		Instructions: 2_000,
		Warmup:       1,
		Seed:         3,
		Parallelism:  4,
	}
	spec := dse.Spec{
		Policies:  []string{"chameleon-opt", "flat"},
		Workloads: []string{"bwaves", "mcf"},
	}
	res, err := RunDSE(context.Background(), o, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCells != 4 || res.Evaluated != 4 {
		t.Fatalf("evaluated %d/%d cells, want 4/4", res.Evaluated, res.TotalCells)
	}
	if len(res.Front) == 0 || len(res.Front)+res.Dominated != len(res.Points) {
		t.Fatalf("front %d + dominated %d != points %d", len(res.Front), res.Dominated, len(res.Points))
	}
	// Options.Seed seeded the seed axis.
	for _, p := range res.Points {
		if p.Cell.Seed != 3 {
			t.Fatalf("cell %d ran seed %d, want the Options seed 3", p.Cell.Index, p.Cell.Seed)
		}
	}
	// Flat requires a baseline; a zero-capacity flat run would report
	// zero capacity and dominate on that axis spuriously.
	for i, o := range res.Objectives {
		if o.Key == dse.KeyTotalCapacity {
			for _, p := range res.Points {
				if p.Values[i] <= 0 {
					t.Fatalf("cell %d (%s) reports non-positive total capacity %v", p.Cell.Index, p.Cell.Policy, p.Values[i])
				}
			}
		}
	}
}

// fakeResult synthesizes a sim.Result whose snapshot exposes the three
// default objectives with the given values (capacity and energy ride on
// a single fake tier).
func fakeResult(ipc, capacity, energy float64) *sim.Result {
	return &sim.Result{
		GeoMeanIPC: ipc,
		Tiers: []sim.TierResult{{
			Tier:          "hbm",
			CapacityBytes: uint64(capacity),
			EnergyNJ:      energy,
		}},
	}
}

// fakeSimulate is an Options.Simulate that simulates nothing: a cell's
// result carries the objective values vals gives it, and cells with an
// even seed report a cache hit.
func fakeSimulate(vals func(c Cell) (ipc, capacity, energy float64)) func(context.Context, Cell) (*sim.Result, bool, error) {
	return func(_ context.Context, c Cell) (*sim.Result, bool, error) {
		ipc, capacity, energy := vals(c)
		return fakeResult(ipc, capacity, energy), c.Seed%2 == 0, nil
	}
}

// hashVals derives a deterministic pseudo-random objective vector from
// a cell's design axes, so every execution order and concurrency sees
// identical values.
func hashVals(c Cell) (float64, float64, float64) {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%s/%d/%d/%d", c.Policy, c.Workload, c.Ratio, c.Scale, c.Seed)
	v := h.Sum64()
	return float64(v%1000) / 100, float64((v>>16)%8) * 1024, float64((v>>32)%16) * 10
}

func TestRunDeterministicAcrossParallelism(t *testing.T) {
	s := dse.Spec{
		Policies:   []string{"chameleon", "pom", "alloy"},
		Workloads:  []string{"bwaves", "mcf", "lbm"},
		Seeds:      []uint64{1, 2},
		PruneAfter: 2,
	}
	var want []byte
	for _, par := range []int{1, 3, 8} {
		res, err := RunDSE(context.Background(), Options{Parallelism: par, Simulate: fakeSimulate(hashVals)}, s)
		if err != nil {
			t.Fatalf("par %d: RunDSE: %v", par, err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if want == nil {
			want = b
			if res.TotalCells != 18 || res.Evaluated+res.Pruned != 18 {
				t.Fatalf("accounting: total %d evaluated %d pruned %d", res.TotalCells, res.Evaluated, res.Pruned)
			}
			if len(res.Front) == 0 {
				t.Fatal("empty front")
			}
		} else if string(b) != string(want) {
			t.Errorf("par %d: result JSON differs from par 1 (len %d vs %d)", par, len(b), len(want))
		}
	}
}

// TestRunPrunedMatchesUnprunedFront builds a sweep where one policy is
// strictly dominated everywhere and large enough (40 cells > one
// 32-cell wave) for the heuristic to actually skip cells, then checks
// pruning changes nothing about the front: byte-identical
// FrontSignature and DeepEqual front points vs full enumeration.
func TestRunPrunedMatchesUnprunedFront(t *testing.T) {
	seeds := make([]uint64, 10)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	base := dse.Spec{
		Policies:  []string{"chameleon", "pom"},
		Workloads: []string{"bwaves", "mcf"},
		Seeds:     seeds,
	}
	// chameleon trades IPC against capacity across seeds (all on the
	// front); pom is strictly worse on every objective everywhere.
	vals := func(c Cell) (float64, float64, float64) {
		if c.Policy == "chameleon" {
			return 2 + 0.01*float64(c.Seed), 1000 + float64(c.Seed), 50
		}
		return 1, 5000, 500
	}
	o := Options{Parallelism: 4, Simulate: fakeSimulate(vals)}

	res, err := RunDSE(context.Background(), o, base)
	if err != nil {
		t.Fatalf("unpruned RunDSE: %v", err)
	}
	pruned := base
	pruned.PruneAfter = 2
	resP, err := RunDSE(context.Background(), o, pruned)
	if err != nil {
		t.Fatalf("pruned RunDSE: %v", err)
	}

	if res.Pruned != 0 || resP.Pruned == 0 {
		t.Errorf("pruned counts: unpruned run %d, pruned run %d (want 0 and > 0)", res.Pruned, resP.Pruned)
	}
	if resP.Evaluated+resP.Pruned != resP.TotalCells {
		t.Errorf("pruned accounting: %d + %d != %d", resP.Evaluated, resP.Pruned, resP.TotalCells)
	}
	if got, want := resP.FrontSignature(), res.FrontSignature(); got != want {
		t.Errorf("front signatures differ:\npruned:   %s\nunpruned: %s", got, want)
	}
	if !reflect.DeepEqual(resP.Front, res.Front) {
		t.Error("pruning dropped or altered front points")
	}
	// Nothing evaluated dominates a front point.
	for _, f := range res.Front {
		for _, p := range res.Points {
			if dse.Dominates(p.Values, f.Values, res.Objectives) {
				t.Fatalf("front point (cell %d) dominated by evaluated cell %d", f.Cell.Index, p.Cell.Index)
			}
		}
	}
	if len(res.Front) != 20 {
		t.Errorf("front has %d points, want the 20 chameleon cells", len(res.Front))
	}
}

func TestRunJoinsWaveErrors(t *testing.T) {
	s := dse.Spec{
		Policies:  []string{"chameleon"},
		Workloads: []string{"bwaves", "mcf", "lbm"},
	}
	boom := errors.New("boom")
	simulate := func(_ context.Context, c Cell) (*sim.Result, bool, error) {
		if c.Workload == "bwaves" || c.Workload == "lbm" {
			return nil, false, boom
		}
		return fakeResult(1, 1, 1), false, nil
	}
	_, err := RunDSE(context.Background(), Options{Parallelism: 4, Simulate: simulate}, s)
	if err == nil || !strings.Contains(err.Error(), "bwaves") || !strings.Contains(err.Error(), "lbm") {
		t.Errorf("RunDSE error = %v, want both failing cells joined", err)
	}
	if !errors.Is(err, boom) {
		t.Errorf("RunDSE error does not wrap the cell error: %v", err)
	}
}

func TestRunCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := dse.Spec{Policies: []string{"chameleon"}, Workloads: []string{"bwaves"}}
	_, err := RunDSE(ctx, Options{Simulate: fakeSimulate(hashVals)}, s)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("RunDSE on canceled ctx = %v, want context.Canceled", err)
	}
}

func TestRunMissingObjectiveKey(t *testing.T) {
	s := dse.Spec{
		Policies:   []string{"chameleon"},
		Workloads:  []string{"bwaves"},
		Objectives: []dse.Objective{{Key: "nonexistent_counter", Sense: dse.SenseMax}},
	}
	_, err := RunDSE(context.Background(), Options{Simulate: fakeSimulate(hashVals)}, s)
	if err == nil || !strings.Contains(err.Error(), "nonexistent_counter") {
		t.Errorf("RunDSE = %v, want missing-key error", err)
	}
}

func TestRunProgressCounts(t *testing.T) {
	s := dse.Spec{Policies: []string{"chameleon"}, Workloads: []string{"bwaves", "mcf"}, Seeds: []uint64{1, 2}}
	var last [4]int
	res, err := RunDSE(context.Background(), Options{
		Parallelism: 2,
		Simulate:    fakeSimulate(hashVals),
		Progress:    func(done, cached, pruned, total int) { last = [4]int{done, cached, pruned, total} },
	}, s)
	if err != nil {
		t.Fatalf("RunDSE: %v", err)
	}
	if want := [4]int{4, res.Cached, 0, 4}; last != want {
		t.Errorf("final progress = %v, want %v", last, want)
	}
	// fakeSimulate marks even seeds cached: seeds 1,2 over 2 workloads.
	if res.Cached != 2 {
		t.Errorf("cached = %d, want 2", res.Cached)
	}
}

// TestRunDSESimulatesDuplicateOnce: ratio 5 is the default machine, so
// ratios [0, 5] expand to two points with one Cell.Hash. The sweep must
// simulate that cell once and give both points its values, counting
// both as evaluated.
func TestRunDSESimulatesDuplicateOnce(t *testing.T) {
	var spec dse.Spec
	if err := json.Unmarshal([]byte(`{"policies":["chameleon-opt"],"workloads":["bwaves"],"ratios":[0,5]}`), &spec); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	simulated := 0
	res, err := RunDSE(context.Background(), Options{
		Scale:        1024,
		Instructions: 2_000,
		Warmup:       1,
		Parallelism:  2,
		Simulate: func(ctx context.Context, c Cell) (*sim.Result, bool, error) {
			mu.Lock()
			simulated++
			mu.Unlock()
			r, err := c.Run(ctx, nil)
			return r, false, err
		},
	}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if simulated != 1 {
		t.Errorf("simulated %d cells, want 1", simulated)
	}
	if res.TotalCells != 2 || res.Evaluated != 2 || res.Cached != 0 || len(res.Points) != 2 {
		t.Fatalf("accounting: total %d evaluated %d cached %d points %d, want 2/2/0/2",
			res.TotalCells, res.Evaluated, res.Cached, len(res.Points))
	}
	a, b := res.Points[0], res.Points[1]
	if a.Hash != b.Hash || !reflect.DeepEqual(a.Values, b.Values) || a.Cell.Ratio == b.Cell.Ratio {
		t.Errorf("points %+v and %+v: want two ratios with one hash and equal values", a, b)
	}
}

// TestPruningIsHeuristic pins what PruneAfter does not promise: the
// pruned front equals the unpruned one only when a condemned value is
// dominated everywhere. Here pom's cells are dominated except seed 40,
// which alone is on the unpruned front; pruning condemns pom at the
// second wave boundary (its first 24 cells are all dominated), skips
// pom/40, and leaves chameleon/40 as the pruned front.
func TestPruningIsHeuristic(t *testing.T) {
	seeds := make([]uint64, 40)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	spec := dse.Spec{Policies: []string{"chameleon", "pom"}, Workloads: []string{"bwaves"}, Seeds: seeds}
	vals := func(c Cell) (float64, float64, float64) {
		switch {
		case c.Policy == "chameleon":
			return 1 + float64(c.Seed)/100, 1000, 50
		case c.Seed == 40:
			return 2, 1000, 50
		}
		return 1, 1000, 50
	}
	o := Options{Parallelism: 2, Simulate: fakeSimulate(vals)}
	front := func(res *dse.Result) []string {
		var out []string
		for _, p := range res.Front {
			out = append(out, fmt.Sprintf("%s/%d", p.Cell.Policy, p.Cell.Seed))
		}
		return out
	}
	res, err := RunDSE(context.Background(), o, spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.PruneAfter = 2
	resP, err := RunDSE(context.Background(), o, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := front(res); !reflect.DeepEqual(got, []string{"pom/40"}) {
		t.Errorf("unpruned front = %v, want [pom/40]", got)
	}
	if got := front(resP); !reflect.DeepEqual(got, []string{"chameleon/40"}) {
		t.Errorf("pruned front = %v, want [chameleon/40]", got)
	}
	if resP.Pruned != 16 || resP.Evaluated != 64 {
		t.Errorf("pruned sweep evaluated %d and pruned %d cells, want 64 and pom's last 16", resP.Evaluated, resP.Pruned)
	}
}
