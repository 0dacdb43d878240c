package experiments

import (
	"context"
	"math"
	"strconv"
	"strings"
	"testing"

	"chameleon/internal/stats"
)

// tiny returns options small enough for unit testing the drivers.
func tiny(workloads ...string) Options {
	if len(workloads) == 0 {
		workloads = []string{"bwaves"}
	}
	return Options{
		Scale:        512,
		Instructions: 50_000,
		Warmup:       500_000,
		Seed:         42,
		Workloads:    workloads,
	}.Defaults()
}

func TestDefaults(t *testing.T) {
	o := Options{}.Defaults()
	if o.Scale == 0 || o.Instructions == 0 || o.Warmup == 0 || o.Seed == 0 {
		t.Error("defaults not applied")
	}
	if len(o.Workloads) != 14 {
		t.Errorf("default workloads = %d, want all 14", len(o.Workloads))
	}
	if o.Parallelism <= 0 {
		t.Error("parallelism default missing")
	}
}

func TestMatrixAndMainFigures(t *testing.T) {
	o := tiny("bwaves")
	m, err := RunMatrix(o)
	if err != nil {
		t.Fatal(err)
	}
	table2, err := Table2(m)
	if err != nil {
		t.Fatal(err)
	}
	// Every policy has a result for every workload.
	for _, pk := range m.Policies {
		for _, wl := range o.Workloads {
			if m.Results[pk][wl] == nil {
				t.Fatalf("missing result %v/%s", pk, wl)
			}
		}
	}
	for name, table := range map[string]interface{ String() string }{
		"fig15":  Fig15(m),
		"fig16":  Fig16(m),
		"fig17":  Fig17(m),
		"fig18":  Fig18(m),
		"fig19":  Fig19(m),
		"fig22":  Fig22(m),
		"fig2a":  Fig2a(m),
		"table2": table2,
	} {
		s := table.String()
		if !strings.Contains(s, "bwaves") {
			t.Errorf("%s missing workload row:\n%s", name, s)
		}
	}
}

func TestUnknownWorkloadErrors(t *testing.T) {
	o := tiny("nope")
	if _, err := RunMatrix(o); err == nil {
		t.Error("unknown workload should fail")
	}
}

func TestFig3FreeMemoryVaries(t *testing.T) {
	o := tiny()
	tab, err := Fig3(o)
	if err != nil {
		t.Fatal(err)
	}
	csv := tab.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) < 20 {
		t.Fatalf("timeline too short: %d lines", len(lines))
	}
	// Free memory must both shrink (ramp) and recover (free).
	var values []float64
	for _, l := range lines[1:] {
		f := strings.Split(l, ",")
		var v float64
		if _, err := fmtSscan(f[len(f)-1], &v); err != nil {
			t.Fatalf("bad value %q", f[len(f)-1])
		}
		values = append(values, v)
	}
	minV, maxV := math.Inf(1), math.Inf(-1)
	for _, v := range values {
		minV = math.Min(minV, v)
		maxV = math.Max(maxV, v)
	}
	if maxV <= minV*1.5 {
		t.Errorf("free memory barely varied: min %.0f max %.0f", minV, maxV)
	}
	if last := values[len(values)-1]; last < maxV*0.9 {
		t.Errorf("memory not recovered after the last workload freed: %v of %v", last, maxV)
	}
}

func TestFig4ImprovementMonotoneIsh(t *testing.T) {
	o := tiny("GemsFDTD")
	o.Instructions = 30_000
	tab := runFig(t, o, "fig4")
	s := tab.String()
	if !strings.Contains(s, "GemsFDTD") {
		t.Fatalf("missing workload:\n%s", s)
	}
	// The average row's 24 GB improvement should exceed the 18 GB one.
	lines := strings.Split(strings.TrimSpace(tab.CSV()), "\n")
	last := strings.Split(lines[len(lines)-1], ",")
	var imp18, imp24 float64
	fmtSscan(last[1], &imp18)
	fmtSscan(last[4], &imp24)
	if imp24 <= imp18 {
		t.Errorf("24 GB improvement (%.1f%%) should exceed 18 GB (%.1f%%)", imp24, imp18)
	}
}

func TestFig5FaultsDropWithCapacity(t *testing.T) {
	o := tiny("GemsFDTD")
	o.Instructions = 30_000
	tab := runFig(t, o, "fig5")
	lines := strings.Split(strings.TrimSpace(tab.CSV()), "\n")
	var f16, f24 float64
	for _, l := range lines[1:] {
		c := strings.Split(l, ",")
		if c[1] == "16" {
			fmtSscan(c[2], &f16)
		}
		if c[1] == "24" {
			fmtSscan(c[2], &f24)
		}
	}
	if f16 <= f24 {
		t.Errorf("16 GB faults (%v) should exceed 24 GB faults (%v)", f16, f24)
	}
}

func TestFig21RatioShape(t *testing.T) {
	o := tiny("bwaves")
	o.Instructions = 30_000
	tab := runFig(t, o, "fig21")
	lines := strings.Split(strings.TrimSpace(tab.CSV()), "\n")
	avg := strings.Split(lines[len(lines)-1], ",")
	var r3, r7 float64
	fmtSscan(avg[1], &r3)
	fmtSscan(avg[3], &r7)
	if r3 >= r7 {
		t.Errorf("1:7 cache-mode share (%.1f) should exceed 1:3 (%.1f)", r7, r3)
	}
}

func TestAutoNUMAAndFig2b(t *testing.T) {
	o := tiny("bwaves")
	tab := runFig(t, o, "fig2b")
	if !strings.Contains(tab.String(), "bwaves") {
		t.Error("fig2b missing workload")
	}
}

func TestOverheadMatchesPaper(t *testing.T) {
	// The paper's stated inputs (700 cycles/line) give 2417 s / 1.25 %;
	// its printed 2071.89 s / 1.06 % implies ~600 cycles/line. Check
	// both ends of that discrepancy.
	p := PaperOverheadParams()
	if s := p.OverheadSeconds(); math.Abs(s-2417.2) > 1 {
		t.Errorf("swap time = %.2f s, stated inputs give 2417.2 s", s)
	}
	if pct := p.OverheadPercent(); math.Abs(pct-1.248) > 0.01 {
		t.Errorf("overhead = %.3f%%, stated inputs give 1.248%%", pct)
	}
	implied := p
	implied.CyclesPerLine = 600
	if pct := implied.OverheadPercent(); math.Abs(pct-1.06) > 0.02 {
		t.Errorf("implied overhead = %.3f%%, paper prints 1.06%%", pct)
	}
	if !strings.Contains(Overhead().String(), "overhead") {
		t.Error("overhead table missing row")
	}
}

func TestTable1Renders(t *testing.T) {
	s := Table1(tiny()).String()
	for _, want := range []string{"Cores", "Tier 0 (stacked)", "Tier 1 (offchip)", "Page-fault"} {
		if !strings.Contains(s, want) {
			t.Errorf("table 1 missing %q:\n%s", want, s)
		}
	}
}

// figure looks a figure up by its -exp name.
func figure(t testing.TB, name string) Figure {
	t.Helper()
	for _, f := range Figures {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("no figure %q", name)
	return Figure{}
}

// runFig renders one figure through Run.
func runFig(t *testing.T, o Options, name string) *stats.Table {
	t.Helper()
	tabs, err := Run(context.Background(), o, figure(t, name))
	if err != nil {
		t.Fatal(err)
	}
	return tabs[0]
}

// fmtSscan parses a float cell from a CSV row.
func fmtSscan(s string, v *float64) (int, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	*v = f
	return 1, nil
}
