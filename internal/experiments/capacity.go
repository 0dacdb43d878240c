package experiments

import (
	"fmt"

	"chameleon/internal/config"
	"chameleon/internal/osmodel"
	"chameleon/internal/sim"
	"chameleon/internal/stats"
	"chameleon/internal/workload"
)

// Fig3 reproduces the free-memory-over-time experiment: the Table II
// workloads run back to back on a 24 GB (scaled) system, each one
// allocating its footprint in a ramp, holding it, then freeing it. The
// table is the sampled free-memory timeline (the paper samples every
// two minutes with numastat; we sample once per ramp/hold step).
func Fig3(o Options) (*stats.Table, error) {
	o = o.Defaults()
	cfg := o.Config()
	osm, err := osmodel.New(osmodel.Config{
		TotalBytes:      cfg.TotalCapacity(),
		PageBytes:       uint64(cfg.OS.PageBytes),
		PageFaultCycles: cfg.OS.PageFaultCycles,
		Alloc:           osmodel.AllocShuffled,
		Seed:            o.Seed,
	}, nil)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("sample", "workload", "phase", "free-MB(x scale)")
	sample := 0
	record := func(wl, phase string) {
		sample++
		mb := float64(osm.FreeBytes()) * float64(o.Scale) / float64(config.MB)
		t.AddRow(sample, wl, phase, mb)
	}
	const rampSteps = 6
	const holdSteps = 4
	for _, wl := range workload.Fig3Sequence() {
		prof, err := o.profile(wl)
		if err != nil {
			return nil, err
		}
		procs := make([]*osmodel.Process, workload.Copies)
		for i := range procs {
			procs[i] = osm.NewProcess()
		}
		record(wl, "start")
		for step := 1; step <= rampSteps; step++ {
			lo := prof.FootprintBytes * uint64(step-1) / rampSteps
			hi := prof.FootprintBytes * uint64(step) / rampSteps
			for _, p := range procs {
				osm.Map(p, lo, hi-lo, 0)
			}
			record(wl, "ramp")
		}
		for step := 0; step < holdSteps; step++ {
			record(wl, "run")
		}
		for _, p := range procs {
			osm.FreeAll(p, 0)
		}
		record(wl, "freed")
	}
	return t, nil
}

// CapacityPoints are the OS-visible capacities of the Figure 4/5 sweep
// in (unscaled) GB.
var CapacityPoints = []uint64{16, 18, 20, 22, 24, 26, 28}

// sweepWorkloads returns the capacity-study workload list restricted to
// the selected subset (falling back to the full Figure 4 set when the
// subset has no high-footprint members).
func sweepWorkloads(o Options) []string {
	want := map[string]bool{}
	for _, wl := range o.Workloads {
		want[wl] = true
	}
	var out []string
	for _, wl := range workload.HighFootprint() {
		if want[wl] {
			out = append(out, wl)
		}
	}
	if len(out) == 0 {
		return workload.HighFootprint()
	}
	return out
}

// capacityColumns are the flat systems of the capacity study of
// Figures 4 and 5, one per capacity point.
func capacityColumns(Options) []Cell {
	var cols []Cell
	for _, gb := range CapacityPoints {
		cols = append(cols, Cell{Policy: sim.PolicyFlat, BaselineGB: gb})
	}
	return cols
}

// fig4 reproduces the execution-time improvement over the 16 GB system
// as capacity grows (equation 1 of the paper; the paper's averages
// rise from 29.5 % at 18 GB to 75.4 % at 24 GB and saturate).
func fig4(o Options, res [][]*sim.Result) (*stats.Table, error) {
	header := []string{"workload"}
	for _, gb := range CapacityPoints[1:] {
		header = append(header, fmt.Sprintf("%dGB-imp%%", gb))
	}
	t := newSummed(header...)
	execTime := func(r *sim.Result) float64 {
		times := make([]float64, len(r.Cores))
		for i, c := range r.Cores {
			times[i] = float64(c.Cycles)
		}
		return stats.GeoMean(times)
	}
	for j, wl := range sweepWorkloads(o) {
		base := execTime(res[j][0])
		var imps []float64
		for _, r := range res[j][1:] {
			imps = append(imps, (base-execTime(r))/base*100)
		}
		t.add([]any{wl}, imps...)
	}
	return t.summary(stats.Mean, "Average"), nil
}

// fig5 reproduces page faults and CPU utilisation versus capacity:
// faults fall and utilisation rises towards 100 % as the footprint
// fits.
func fig5(o Options, res [][]*sim.Result) (*stats.Table, error) {
	t := stats.NewTable("workload", "capacity-GB", "major-faults", "cpu-util%")
	for j, wl := range sweepWorkloads(o) {
		for i, gb := range CapacityPoints {
			r := res[j][i]
			t.AddRow(wl, gb, r.OS.MajorFaults, r.CPUUtilization*100)
		}
	}
	return t, nil
}
