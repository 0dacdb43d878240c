package experiments

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"chameleon/internal/config"
	"chameleon/internal/dse"
	"chameleon/internal/policy"
	"chameleon/internal/sim"
	"chameleon/internal/workload"
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

// TestNormalizeDropsDisabledAutoNUMA: Options enables AutoNUMA only
// for a positive threshold, so a negative or NaN one normalizes to the
// cell without AutoNUMA, and an infinite one, which the hash cannot
// encode, is rejected.
func TestNormalizeDropsDisabledAutoNUMA(t *testing.T) {
	bare := Cell{Policy: sim.PolicyNUMAFlat, Workload: "mcf", Scale: 1024, Seed: 1, Instructions: 1000, Warmup: 1}
	want, err := bare.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	for _, th := range []float64{-0.5, math.NaN()} {
		c := bare
		c.AutoNUMA = th
		got, err := c.Normalize()
		if err != nil {
			t.Fatalf("threshold %v: %v", th, err)
		}
		if got.Hash() != want.Hash() {
			t.Errorf("threshold %v: hash %.12s, want the bare cell's %.12s", th, got.Hash(), want.Hash())
		}
	}
	c := bare
	c.AutoNUMA = math.Inf(1)
	if _, err := c.Normalize(); err == nil {
		t.Error("an infinite threshold normalized")
	}
}

// fuzzCell is the cell a FuzzCellCanonical input spells: each byte
// picks one field from a small range near config.Default(scale), so
// that distinct inputs often describe one machine.
type fuzzCell struct {
	policy, workload, scale, ratio, baseline, autonuma, levels, tiers, epoch uint8
}

func (f fuzzCell) cell() Cell {
	pols, wls := policy.Names(), workload.Names()
	scale := uint64(1) << (6 + f.scale%8) // 64 .. 8192
	def := config.Default(scale)
	c := Cell{
		Policy:       sim.PolicyKind(pols[int(f.policy)%len(pols)]),
		Workload:     wls[int(f.workload)%len(wls)],
		Scale:        scale,
		Ratio:        int(f.ratio%12) - 1, // -1 .. 10
		BaselineGB:   uint64(f.baseline % 4 * 8),
		AutoNUMA:     []float64{0, -0.5, 0.5, 1, math.NaN(), math.Inf(1)}[f.autonuma%6],
		Seed:         1,
		Instructions: 1000,
		Warmup:       1,
	}
	if f.epoch%2 == 1 {
		c.TimelineEpochCycles = 1_000_000 // the default, spelled out
	}
	switch f.levels % 5 {
	case 1:
		c.CacheLevels = def.CacheLevels
	case 2:
		c.CacheLevels = def.CacheLevels
		c.CacheLevels[0].Ways *= 2
	case 3:
		c.CacheLevels = config.Default(scale * 2).CacheLevels // equal to def's once L2 and L3 hit their floors
	case 4:
		c.CacheLevels = []config.CacheLevelConfig{}
	}
	switch f.tiers % 5 {
	case 1:
		c.MemoryTiers = def.MemoryTiers
	case 2:
		c.MemoryTiers = def.WithNVMTier(def.TierCapacity(1)).MemoryTiers
	case 3:
		c.MemoryTiers = config.Default(scale * 2).MemoryTiers
	case 4:
		c.MemoryTiers = []config.MemTierConfig{}
	}
	return c
}

// FuzzCellCanonical: Cell.Hash keys the result cache, so a cached
// result is served to every cell with its hash. Over pairs of cells
// spelled near the scaled default machine, a cell that normalizes is a
// fixed point of Normalize and keeps its machine, and two normalized
// cells with one hash
// build DeepEqual simulator options for the same instruction budget:
// one hash never stands for two simulations. The second cell is the
// first with the fields that mask selects taken from alt, so most
// pairs differ in a field or two, where a spelling collision hides.
func FuzzCellCanonical(f *testing.F) {
	f.Add([]byte{0, 0, 2, 0, 0, 1, 0, 0, 0}, []byte{0, 0, 0, 0, 0, 0, 1, 1, 1}, uint16(0b111000000))
	f.Add([]byte{3, 1, 4, 4, 1, 2, 1, 2, 0}, []byte{0, 0, 0, 0, 2, 0, 3, 0, 0}, uint16(0b1010000))
	f.Add([]byte{5, 2, 7, 9, 3, 3, 3, 3, 1}, []byte{0, 0, 0, 0, 0, 0, 2, 4, 0}, uint16(0b11001000))
	f.Fuzz(func(t *testing.T, a, alt []byte, mask uint16) {
		var cells [2]Cell
		for i := range cells {
			var fc fuzzCell
			for j, p := range []*uint8{&fc.policy, &fc.workload, &fc.scale, &fc.ratio, &fc.baseline,
				&fc.autonuma, &fc.levels, &fc.tiers, &fc.epoch} {
				switch {
				case i == 1 && mask&(1<<j) != 0 && j < len(alt):
					*p = alt[j]
				case j < len(a):
					*p = a[j]
				}
			}
			raw := fc.cell()
			n, err := raw.Normalize()
			if err != nil {
				return
			}
			want, err := raw.machine()
			if err != nil {
				t.Fatalf("cell %+v normalizes but its machine does not build: %v", raw, err)
			}
			if got, _ := n.machine(); !reflect.DeepEqual(got, want) {
				t.Fatalf("Normalize changed the machine of %+v", raw)
			}
			again, err := n.Normalize()
			if err != nil {
				t.Fatalf("normalized cell %+v fails to normalize again: %v", n, err)
			}
			if !reflect.DeepEqual(again, n) {
				t.Fatalf("Normalize is not idempotent:\nonce:  %+v\ntwice: %+v", n, again)
			}
			cells[i] = n
		}
		if cells[0].Hash() != cells[1].Hash() {
			return
		}
		var opts [2]sim.Options
		for i, c := range cells {
			o, err := c.Options()
			if err != nil {
				t.Fatalf("normalized cell %+v does not build options: %v", c, err)
			}
			opts[i] = o
		}
		if !reflect.DeepEqual(opts[0], opts[1]) || cells[0].Instructions != cells[1].Instructions {
			t.Fatalf("one hash %.12s for two simulations:\n%+v\n%+v", cells[0].Hash(), cells[0], cells[1])
		}
	})
}
