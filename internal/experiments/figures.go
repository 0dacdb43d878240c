package experiments

import (
	"fmt"

	"chameleon/internal/config"
	"chameleon/internal/sim"
	"chameleon/internal/stats"
)

// summed is a table whose numeric columns close with a summary row,
// such as a figure's Average or GeoMean row.
type summed struct {
	*stats.Table
	cols [][]float64
}

func newSummed(header ...string) *summed { return &summed{Table: stats.NewTable(header...)} }

// add appends a row of the lead cells then vals, keeping vals for the
// summary.
func (t *summed) add(lead []any, vals ...float64) {
	for i, v := range vals {
		if i == len(t.cols) {
			t.cols = append(t.cols, nil)
		}
		t.cols[i] = append(t.cols[i], v)
		lead = append(lead, v)
	}
	t.AddRow(lead...)
}

// summary appends the lead cells then agg of each column added since
// the last summary, and returns the table.
func (t *summed) summary(agg func([]float64) float64, lead ...any) *stats.Table {
	for _, c := range t.cols {
		lead = append(lead, agg(c))
	}
	t.AddRow(lead...)
	t.cols = nil
	return t.Table
}

// Fig15 reproduces the stacked-DRAM hit-rate comparison (Alloy Cache,
// PoM, Chameleon, Chameleon-Opt). Paper averages: 62.4 %, 81 %,
// 84.6 %, 89.4 %.
func Fig15(m *Matrix) *stats.Table {
	t := newSummed("workload", "alloy", "pom", "chameleon", "chameleon-opt")
	for _, wl := range m.Opts.Workloads {
		var vals []float64
		for _, k := range []sim.PolicyKind{sim.PolicyAlloy, sim.PolicyPoM, sim.PolicyChameleon, sim.PolicyChameleonOpt} {
			vals = append(vals, m.Metric(k, wl, "stacked_hit_rate")*100)
		}
		t.add([]any{wl}, vals...)
	}
	return t.summary(stats.Mean, "Average")
}

// Fig16 reproduces the cache-mode vs PoM-mode segment-group
// distribution for Chameleon and Chameleon-Opt. Paper averages: 9.2 %
// and 40.6 % of groups in cache mode.
func Fig16(m *Matrix) *stats.Table {
	t := newSummed("workload", "chameleon-cache%", "chameleon-opt-cache%")
	for _, wl := range m.Opts.Workloads {
		t.add([]any{wl},
			m.Metric(sim.PolicyChameleon, wl, "cache_mode_fraction")*100,
			m.Metric(sim.PolicyChameleonOpt, wl, "cache_mode_fraction")*100)
	}
	return t.summary(stats.Mean, "Average")
}

// Fig17 reproduces segment swaps normalised to PoM. Paper averages:
// Chameleon 0.856, Chameleon-Opt 0.569.
func Fig17(m *Matrix) *stats.Table {
	t := newSummed("workload", "pom", "chameleon", "chameleon-opt")
	for _, wl := range m.Opts.Workloads {
		base := m.Metric(sim.PolicyPoM, wl, "ctrl.swaps")
		c := m.Metric(sim.PolicyChameleon, wl, "ctrl.swaps")
		o := m.Metric(sim.PolicyChameleonOpt, wl, "ctrl.swaps")
		nc, no := 1.0, 1.0
		if base > 0 {
			nc, no = c/base, o/base
		}
		t.add([]any{wl, 1.0}, nc, no)
	}
	return t.summary(stats.Mean, "Average", 1.0)
}

// normalizedIPC returns each kind's IPC on wl over the 20 GB baseline's.
func (m *Matrix) normalizedIPC(wl string, kinds ...sim.PolicyKind) []float64 {
	base := m.Metric(sim.PolicyFlat, wl, "ipc_geomean")
	var vals []float64
	for _, k := range kinds {
		vals = append(vals, m.Metric(k, wl, "ipc_geomean")/base)
	}
	return vals
}

// Fig18 reproduces the normalised-IPC comparison across the two flat
// baselines, Alloy, PoM, Chameleon and Chameleon-Opt (normalised to
// the 20 GB DDR3 baseline). Paper geomeans: 24 GB 1.356, PoM 1.852,
// Chameleon 1.968, Chameleon-Opt 2.063.
func Fig18(m *Matrix) *stats.Table {
	t := newSummed("workload", "flat20", "flat24", "alloy", "pom", "chameleon", "chameleon-opt")
	for _, wl := range m.Opts.Workloads {
		t.add([]any{wl, 1.0}, m.normalizedIPC(wl, policyFlat24, sim.PolicyAlloy, sim.PolicyPoM,
			sim.PolicyChameleon, sim.PolicyChameleonOpt)...)
	}
	return t.summary(stats.GeoMean, "GeoMean", 1.0)
}

// Fig19 reproduces the average memory access latency (CPU cycles) for
// PoM, Chameleon and Chameleon-Opt.
func Fig19(m *Matrix) *stats.Table {
	t := newSummed("workload", "pom", "chameleon", "chameleon-opt")
	for _, wl := range m.Opts.Workloads {
		var vals []float64
		for _, k := range []sim.PolicyKind{sim.PolicyPoM, sim.PolicyChameleon, sim.PolicyChameleonOpt} {
			vals = append(vals, m.Metric(k, wl, "amat_cycles"))
		}
		t.add([]any{wl}, vals...)
	}
	return t.summary(stats.GeoMean, "GeoMean")
}

// fig20 compares Chameleon against the OS-based placements (normalised
// to the 20 GB baseline): first-touch NUMA allocation and AutoNUMA at
// three thresholds. Paper: Chameleon +28.7 %/+19.1 % over
// first-touch/AutoNUMA, Chameleon-Opt +34.8 %/+24.9 %.
func fig20(o Options, res [][]*sim.Result) (*stats.Table, error) {
	m := newMatrix(o, res)
	t := newSummed("workload", "flat20", "flat24", "first-touch",
		"autonuma-70", "autonuma-80", "autonuma-90", "chameleon", "chameleon-opt")
	for j, wl := range o.Workloads {
		base := m.Metric(sim.PolicyFlat, wl, "ipc_geomean")
		vals := m.normalizedIPC(wl, policyFlat24, sim.PolicyNUMAFlat)
		for _, r := range res[j][len(m.Policies):] {
			vals = append(vals, r.GeoMeanIPC/base)
		}
		vals = append(vals, m.normalizedIPC(wl, sim.PolicyChameleon, sim.PolicyChameleonOpt)...)
		t.add([]any{wl, 1.0}, vals...)
	}
	return t.summary(stats.GeoMean, "GeoMean", 1.0), nil
}

// Fig22 reproduces the Polymorphic Memory comparison (normalised IPC
// over the 20 GB baseline). Paper: Chameleon +10.5 % and Chameleon-Opt
// +15.8 % over Polymorphic Memory.
func Fig22(m *Matrix) *stats.Table {
	t := newSummed("workload", "flat20", "flat24", "polymorphic", "chameleon", "chameleon-opt")
	for _, wl := range m.Opts.Workloads {
		t.add([]any{wl, 1.0}, m.normalizedIPC(wl, policyFlat24, sim.PolicyPolymorphic,
			sim.PolicyChameleon, sim.PolicyChameleonOpt)...)
	}
	return t.summary(stats.GeoMean, "GeoMean", 1.0)
}

// Fig2a reproduces the first-touch NUMA allocator's stacked-DRAM hit
// rate (paper average: 18.5 %).
func Fig2a(m *Matrix) *stats.Table {
	t := newSummed("workload", "hit-rate%")
	for _, wl := range m.Opts.Workloads {
		t.add([]any{wl}, m.Metric(sim.PolicyNUMAFlat, wl, "stacked_hit_rate")*100)
	}
	return t.summary(stats.Mean, "Average")
}

// autoNUMAColumns are the NUMA-flat runs of Figures 2b and 20, with
// AutoNUMA at the 70/80/90 % numa_period_threshold values.
func autoNUMAColumns(Options) []Cell {
	var cols []Cell
	for _, th := range []float64{0.7, 0.8, 0.9} {
		cols = append(cols, Cell{Policy: sim.PolicyNUMAFlat, AutoNUMA: th})
	}
	return cols
}

// fig2b reproduces the AutoNUMA stacked-DRAM hit rates at the 70/80/90%
// thresholds (paper average ~64.4 %, rising with the threshold).
func fig2b(o Options, res [][]*sim.Result) (*stats.Table, error) {
	t := newSummed("workload", "thresh-70%", "thresh-80%", "thresh-90%")
	for j, wl := range o.Workloads {
		var vals []float64
		for _, r := range res[j] {
			vals = append(vals, r.StackedHitRate*100)
		}
		t.add([]any{wl}, vals...)
	}
	return t.summary(stats.Mean, "Average"), nil
}

// fig2c reproduces the cloverleaf AutoNUMA timeline: migrated pages and
// cumulative hit rate per scan epoch at the 90 % threshold. The epoch
// scales with the run (see AutoNUMA): 562,500 cycles at the default
// budgets, where the paper's runs used 10M cycles.
func fig2c(_ Options, res [][]*sim.Result) (*stats.Table, error) {
	t := stats.NewTable("epoch", "migrations", "enomem", "hit-rate%")
	for _, rec := range res[0][0].NUMATimeline {
		t.AddRow(rec.Epoch, rec.Migrations, rec.Failed, rec.HitRate*100)
	}
	return t, nil
}

// fig21Columns are Chameleon-Opt at the 1:3, 1:5 and 1:7
// stacked:off-chip ratios.
func fig21Columns(Options) []Cell {
	var cols []Cell
	for _, r := range []int{3, 5, 7} {
		cols = append(cols, Cell{Policy: sim.PolicyChameleonOpt, Ratio: r})
	}
	return cols
}

// fig21 reproduces the mode-distribution sensitivity to the
// stacked:off-chip capacity ratio for Chameleon-Opt (paper: 33 % cache
// mode at 1:3, 40.6 % at 1:5, 48.7 % at 1:7).
func fig21(o Options, res [][]*sim.Result) (*stats.Table, error) {
	t := newSummed("workload", "1:3-cache%", "1:5-cache%", "1:7-cache%")
	for j, wl := range o.Workloads {
		r := res[j]
		t.add([]any{wl}, r[0].CacheModeFraction*100, r[1].CacheModeFraction*100, r[2].CacheModeFraction*100)
	}
	return t.summary(stats.Mean, "Average"), nil
}

// fig23Ratios are the capacity ratios of Figure 23. At each ratio a
// workload runs the two flat baselines (20 and 24 GB), then PoM,
// Chameleon and Chameleon-Opt.
var fig23Ratios = []int{3, 7}

func fig23Columns(Options) []Cell {
	var cols []Cell
	for _, r := range fig23Ratios {
		cols = append(cols, Cell{Policy: sim.PolicyFlat, BaselineGB: 20, Ratio: r},
			Cell{Policy: sim.PolicyFlat, BaselineGB: 24, Ratio: r}, Cell{Policy: sim.PolicyPoM, Ratio: r},
			Cell{Policy: sim.PolicyChameleon, Ratio: r}, Cell{Policy: sim.PolicyChameleonOpt, Ratio: r})
	}
	return cols
}

// fig23 reproduces the sensitivity of normalised IPC to the capacity
// ratio (paper: at 1:3 Chameleon/Chameleon-Opt beat PoM by 5.9 %/7.6 %;
// at 1:7 by 8.1 %/12.4 %).
func fig23(o Options, res [][]*sim.Result) (*stats.Table, error) {
	t := newSummed("ratio", "workload", "flat20", "flat24", "pom", "chameleon", "chameleon-opt")
	for r, ratio := range fig23Ratios {
		label := fmt.Sprintf("1:%d", ratio)
		for j, wl := range o.Workloads {
			cell := res[j][5*r:][:5]
			var vals []float64
			for _, c := range cell[1:] {
				vals = append(vals, c.GeoMeanIPC/cell[0].GeoMeanIPC)
			}
			t.add([]any{label, wl, 1.0}, vals...)
		}
		t.summary(stats.GeoMean, label, "GeoMean", 1.0)
	}
	return t.Table, nil
}

// Table1 renders the simulated configuration. The cache rows follow
// whatever hierarchy the options resolve to, not a fixed L1/L2/L3.
func Table1(o Options) *stats.Table {
	o = o.Defaults()
	c := o.Config()
	t := stats.NewTable("component", "configuration")
	t.AddRow("Cores", fmt.Sprintf("%d @ %.1f GHz, MLP %d", c.CPU.Cores, c.CPU.FreqHz/1e9, c.CPU.MaxMLP))
	for _, lv := range c.CacheLevels {
		share := "private"
		if lv.Shared {
			share = "shared"
		}
		t.AddRow(lv.Name, fmt.Sprintf("%d KB, %d-way, %d B lines, %d cycles, %s",
			lv.SizeBytes/config.KB, lv.Ways, lv.LineBytes, lv.LatencyCycles, share))
	}
	for i, tier := range c.MemoryTiers {
		label := fmt.Sprintf("Tier %d (%s)", i, tier.Name())
		switch tier.ResolvedKind() {
		case config.TierNVM:
			n := tier.NVM
			t.AddRow(label, fmt.Sprintf("%d MB NVM, %.0f/%.0f ns R/W, %.1f/%.1f GB/s R/W",
				n.CapacityBytes/config.MB, n.ReadLatencyNanos, n.WriteLatencyNanos,
				n.ReadBandwidth/1e9, n.WriteBandwidth/1e9))
		case config.TierCXL:
			x := tier.CXL
			t.AddRow(label, fmt.Sprintf("%d MB CXL, %.0f ns link, %.1f GB/s",
				x.CapacityBytes/config.MB, x.LinkLatencyNanos, x.LinkBandwidth/1e9))
		default:
			d := tier.DRAM
			t.AddRow(label, fmt.Sprintf("%d MB, %d ch, %d-bit @ %.1f GHz (%.1f GB/s)",
				d.CapacityBytes/config.MB, d.Channels, d.BusWidthBits, d.BusFreqHz/1e9, d.PeakBandwidth()/1e9))
		}
	}
	t.AddRow("Page-fault latency", fmt.Sprintf("%d cycles (SSD)", c.OS.PageFaultCycles))
	t.AddRow("Segment", fmt.Sprintf("%d B, swap threshold %d", c.MemSys.SegmentBytes, c.MemSys.SwapThreshold))
	t.AddRow("Scale divisor", fmt.Sprintf("%d", o.Scale))
	return t
}

// Table2 measures each workload's achieved LLC-MPKI and footprint in
// the simulator, against the Table II targets.
func Table2(m *Matrix) (*stats.Table, error) {
	t := stats.NewTable("workload", "target-MPKI", "measured-MPKI", "footprint-GB(x scale)")
	for _, wl := range m.Opts.Workloads {
		prof, err := m.Opts.profile(wl)
		if err != nil {
			return nil, err
		}
		res := m.get(sim.PolicyFlat, wl)
		var mpki float64
		for _, c := range res.Cores {
			mpki += c.MPKI
		}
		mpki /= float64(len(res.Cores))
		fullGB := float64(prof.FootprintBytes*12) * float64(m.Opts.Scale) / float64(config.GB)
		t.AddRow(wl, prof.TargetLLCMPKI, mpki, fullGB)
	}
	return t, nil
}
