package sim

import (
	"testing"

	"chameleon/internal/cache"
	"chameleon/internal/config"
	"chameleon/internal/dram"
	"chameleon/internal/osmodel"
	"chameleon/internal/stats"
	"chameleon/internal/workload"
)

// Every statistics-bearing layer must speak the one snapshot shape.
var (
	_ stats.Source = (*cache.Cache)(nil)
	_ stats.Source = (*dram.Device)(nil)
	_ stats.Source = (*osmodel.OS)(nil)
	_ stats.Source = (*Result)(nil)
)

// TestResultSnapshotShape runs one small simulation and checks the
// unified snapshot carries the headline scalars and each substrate's
// namespaced counters, consistent with the Result fields.
func TestResultSnapshotShape(t *testing.T) {
	const scale = 1024
	prof, err := workload.ByName("bwaves")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(Options{
		Config:   config.Default(scale),
		Policy:   PolicyChameleonOpt,
		Workload: prof.Scale(scale),
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(5_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Name() != res.Policy {
		t.Errorf("Name() = %q, want %q", res.Name(), res.Policy)
	}
	snap := res.Snapshot()
	for _, key := range []string{
		"ipc_geomean", "stacked_hit_rate", "amat_cycles",
		"cache_mode_fraction", "cpu_utilization", "max_cycles", "cores",
		"ctrl.accesses", "ctrl.swaps", "os.major_faults",
		"mem_stacked.reads", "mem_offchip.reads", "l3.misses",
	} {
		if _, ok := snap[key]; !ok {
			t.Errorf("snapshot missing %q (have %v)", key, snap.Keys())
		}
	}
	if snap["ipc_geomean"] != res.GeoMeanIPC {
		t.Errorf("ipc_geomean %v != GeoMeanIPC %v", snap["ipc_geomean"], res.GeoMeanIPC)
	}
	if snap["ctrl.accesses"] != float64(res.Ctrl.Accesses) {
		t.Errorf("ctrl.accesses %v != Ctrl.Accesses %d", snap["ctrl.accesses"], res.Ctrl.Accesses)
	}
	if snap["max_cycles"] != float64(res.MaxCycles) {
		t.Errorf("max_cycles %v != MaxCycles %d", snap["max_cycles"], res.MaxCycles)
	}
}
