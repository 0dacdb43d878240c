package experiments

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"chameleon/internal/config"
	"chameleon/internal/dse"
	"chameleon/internal/sim"
)

// TestNormalizeDropsDefaultOverlays: a cell that spells out the scaled
// default hierarchy and memory stack simulates the machine of the cell
// that omits them, so both normalize equal and share one hash, whether
// the overlays arrive as Go values or as the chamd wire JSON.
func TestNormalizeDropsDefaultOverlays(t *testing.T) {
	bare := Cell{Policy: sim.PolicyChameleonOpt, Workload: "bwaves", Scale: 256, Seed: 42,
		Instructions: 500_000, Warmup: 4_000_000}
	def := config.Default(256)
	spelled := bare
	spelled.CacheLevels, spelled.MemoryTiers = def.CacheLevels, def.MemoryTiers
	b, err := json.Marshal(spelled)
	if err != nil {
		t.Fatal(err)
	}
	var wire Cell
	if err := json.Unmarshal(b, &wire); err != nil {
		t.Fatal(err)
	}
	want, err := bare.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	wantOpts, err := want.Options()
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]Cell{"go": spelled, "wire": wire} {
		got, err := c.Normalize()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.CacheLevels != nil || got.MemoryTiers != nil {
			t.Errorf("%s: default overlays survive Normalize", name)
		}
		if got.Hash() != want.Hash() {
			t.Errorf("%s: hash %.12s, want the bare cell's %.12s", name, got.Hash(), want.Hash())
		}
		opts, err := got.Options()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(opts, wantOpts) {
			t.Errorf("%s: options differ from the bare cell's", name)
		}
	}
	// An overlay that differs from the default stays.
	other := spelled
	other.CacheLevels = append([]config.CacheLevelConfig(nil), def.CacheLevels...)
	other.CacheLevels[0].Ways = 8
	got, err := other.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if got.CacheLevels == nil || got.MemoryTiers != nil {
		t.Errorf("a non-default hierarchy with the default stack normalized to levels %v, tiers %v", got.CacheLevels, got.MemoryTiers)
	}
}

// TestSweepDefaultVariantSimulatesOnce: a sweep whose cache variant is
// the default hierarchy runs the default machine, so its cell is the
// cell of the sweep without the variant and a shared result cache
// simulates it once.
func TestSweepDefaultVariantSimulatesOnce(t *testing.T) {
	results := map[string]*sim.Result{}
	simulated := 0
	o := Options{Scale: 1024, Instructions: 2_000, Warmup: 1, Parallelism: 1,
		Simulate: func(ctx context.Context, c Cell) (*sim.Result, bool, error) {
			if r, ok := results[c.Hash()]; ok {
				return r, true, nil
			}
			simulated++
			r, err := c.Run(ctx, nil)
			results[c.Hash()] = r
			return r, false, err
		}}
	plain := dse.Spec{Policies: []string{"chameleon-opt"}, Workloads: []string{"bwaves"}}
	variant := plain
	variant.CacheLevelVariants = [][]config.CacheLevelConfig{config.Default(1024).CacheLevels}
	var hashes []string
	for _, spec := range []dse.Spec{plain, variant} {
		res, err := RunDSE(context.Background(), o, spec)
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, res.Points[0].Hash)
	}
	if simulated != 1 || hashes[0] != hashes[1] {
		t.Errorf("simulated %d times with hashes %.12s and %.12s; want once, one hash", simulated, hashes[0], hashes[1])
	}
}
