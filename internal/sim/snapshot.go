package sim

import (
	"strings"

	"chameleon/internal/stats"
)

// Snapshot flattens the run into one stats.Snapshot: its headline
// scalars plus every substrate counter, namespaced by subsystem
// ("ctrl.swaps", "mem_stacked.row_hits", "l3.misses", ...). Cache
// levels contribute one namespace each, keyed by the lower-cased level
// name, so the server's expvar surface, the experiment figure emitters,
// and the CLI's counter dump follow whatever hierarchy the run was
// configured with.
func (r *Result) Snapshot() stats.Snapshot {
	s := stats.Snapshot{
		"ipc_geomean":         r.GeoMeanIPC,
		"stacked_hit_rate":    r.StackedHitRate,
		"amat_cycles":         r.AMAT,
		"cache_mode_fraction": r.CacheModeFraction,
		"cpu_utilization":     r.CPUUtilization,
		"max_cycles":          float64(r.MaxCycles),
		"cores":               float64(len(r.Cores)),
	}
	s.Merge("ctrl", r.Ctrl.Snapshot())
	s.Merge("os", r.OS.Snapshot())
	for _, t := range r.Tiers {
		ns := "mem_" + strings.ToLower(t.Tier)
		s.Merge(ns, t.Device)
		s[ns+".capacity_bytes"] = float64(t.CapacityBytes)
		s[ns+".demand_accesses"] = float64(t.DemandAccesses)
		s[ns+".occupancy"] = t.Occupancy
		s[ns+".energy_nj"] = t.EnergyNJ
		s[ns+".utilization"] = t.Utilization
	}
	for _, lv := range r.Levels {
		s.Merge(strings.ToLower(lv.Level), lv.Snapshot())
	}
	return s
}
