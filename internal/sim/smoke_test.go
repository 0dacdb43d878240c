package sim

import (
	"testing"

	"chameleon/internal/config"
	"chameleon/internal/workload"
)

// TestSmokeAllPolicies runs every policy briefly on a scaled system and
// checks basic sanity of the results.
func TestSmokeAllPolicies(t *testing.T) {
	const scale = 256
	cfg := config.Default(scale)
	prof, err := workload.ByName("bwaves")
	if err != nil {
		t.Fatal(err)
	}
	prof = prof.Scale(scale)

	kinds := []PolicyKind{PolicyFlat, PolicyNUMAFlat, PolicyAlloy, PolicyPoM, PolicyPolymorphic, PolicyChameleon, PolicyChameleonOpt}
	for _, k := range kinds {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			opts := Options{Config: cfg, Policy: k, Workload: prof, Seed: 42, WarmupInstructions: 5_000_000}
			if k == PolicyFlat {
				opts.BaselineBytes = cfg.TotalCapacity()
			}
			sys, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Run(500_000)
			if err != nil {
				t.Fatal(err)
			}
			if res.GeoMeanIPC <= 0 || res.GeoMeanIPC > 4 {
				t.Errorf("implausible IPC %.3f", res.GeoMeanIPC)
			}
			if res.Ctrl.Accesses == 0 {
				t.Errorf("no memory accesses reached the controller")
			}
			t.Logf("%s: IPC=%.3f hit=%.1f%% AMAT=%.0f swaps=%d fills=%d wb=%d cacheMode=%.1f%% MPKI=%.2f faults=%d",
				k, res.GeoMeanIPC, res.StackedHitRate*100, res.AMAT,
				res.Ctrl.Swaps, res.Ctrl.Fills, res.Ctrl.Writebacks, res.CacheModeFraction*100, res.Cores[0].MPKI, res.OS.MajorFaults)
			for _, tr := range res.Tiers {
				d := tr.Device
				t.Logf("   %s: r=%.0f w=%.0f rowHit=%.0f conf=%.0f busW=%.0f",
					tr.Tier, d["reads"], d["writes"], d["row_hits"], d["row_conflicts"], d["bus_waits"])
			}
		})
	}
}
