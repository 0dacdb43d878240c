// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations of the design decisions DESIGN.md calls
// out. Each benchmark runs the corresponding experiment driver on a
// scaled machine with a representative workload subset and reports the
// figure's headline metric(s) via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// produces a compact reproduction of the evaluation. The full,
// all-workload versions of the same experiments are produced by
// cmd/experiments.
package chameleon_test

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"chameleon"
	"chameleon/internal/experiments"
	"chameleon/internal/stats"
)

// benchOpts are sized so that one iteration of each benchmark stays in
// the low seconds on a single core.
func benchOpts(workloads ...string) experiments.Options {
	if len(workloads) == 0 {
		workloads = []string{"bwaves"}
	}
	return experiments.Options{
		Scale:        256,
		Instructions: 200_000,
		Warmup:       1_500_000,
		Seed:         42,
		Workloads:    workloads,
	}.Defaults()
}

// benchMatrix runs the policy x workload matrix once per iteration.
func benchMatrix(b *testing.B, o experiments.Options) *experiments.Matrix {
	b.Helper()
	var m *experiments.Matrix
	var err error
	for i := 0; i < b.N; i++ {
		m, err = experiments.RunMatrix(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	return m
}

// benchFigure renders the named figure once per iteration through the
// reproduction's runner.
func benchFigure(b *testing.B, o experiments.Options, name string) *stats.Table {
	b.Helper()
	var fig experiments.Figure
	for _, f := range experiments.Figures {
		if f.Name == name {
			fig = f
		}
	}
	var t *stats.Table
	for i := 0; i < b.N; i++ {
		tabs, err := experiments.Run(context.Background(), o, fig)
		if err != nil {
			b.Fatal(err)
		}
		t = tabs[0]
	}
	return t
}

// tableValue reads the numeric cell in the row whose first column is
// row and the column headed col.
func tableValue(b *testing.B, t *stats.Table, row, col string) float64 {
	b.Helper()
	lines := strings.Split(strings.TrimSpace(t.CSV()), "\n")
	header := strings.Split(lines[0], ",")
	for _, l := range lines[1:] {
		cells := strings.Split(l, ",")
		for i, h := range header {
			if cells[0] == row && h == col {
				v, err := strconv.ParseFloat(cells[i], 64)
				if err != nil {
					b.Fatal(err)
				}
				return v
			}
		}
	}
	b.Fatalf("no cell %s/%s", row, col)
	return 0
}

func BenchmarkTable2(b *testing.B) {
	o := benchOpts("bwaves")
	m := benchMatrix(b, o)
	res := m.Results[chameleon.PolicyFlat]["bwaves"]
	var mpki float64
	for _, c := range res.Cores {
		mpki += c.MPKI
	}
	b.ReportMetric(mpki/float64(len(res.Cores)), "LLC-MPKI")
}

func BenchmarkFig2a(b *testing.B) {
	o := benchOpts("bwaves")
	m := benchMatrix(b, o)
	b.ReportMetric(m.Results[chameleon.PolicyNUMAFlat]["bwaves"].StackedHitRate*100, "hit%")
}

func BenchmarkFig2b(b *testing.B) {
	t := benchFigure(b, benchOpts("bwaves"), "fig2b")
	b.ReportMetric(tableValue(b, t, "bwaves", "thresh-90%"), "autonuma-hit%")
}

func BenchmarkFig2c(b *testing.B) {
	_ = benchFigure(b, benchOpts("cloverleaf"), "fig2c").String()
}

func BenchmarkFig3(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4(b *testing.B) {
	_ = benchFigure(b, benchOpts("GemsFDTD"), "fig4").String()
}

func BenchmarkFig5(b *testing.B) {
	benchFigure(b, benchOpts("GemsFDTD"), "fig5")
}

func BenchmarkFig15(b *testing.B) {
	o := benchOpts("bwaves")
	m := benchMatrix(b, o)
	_ = experiments.Fig15(m).String()
	b.ReportMetric(m.Results[chameleon.PolicyPoM]["bwaves"].StackedHitRate*100, "pom-hit%")
	b.ReportMetric(m.Results[chameleon.PolicyChameleonOpt]["bwaves"].StackedHitRate*100, "opt-hit%")
}

func BenchmarkFig16(b *testing.B) {
	o := benchOpts("bwaves")
	m := benchMatrix(b, o)
	_ = experiments.Fig16(m).String()
	b.ReportMetric(m.Results[chameleon.PolicyChameleon]["bwaves"].CacheModeFraction*100, "cham-cache%")
	b.ReportMetric(m.Results[chameleon.PolicyChameleonOpt]["bwaves"].CacheModeFraction*100, "opt-cache%")
}

func BenchmarkFig17(b *testing.B) {
	o := benchOpts("bwaves")
	m := benchMatrix(b, o)
	_ = experiments.Fig17(m).String()
	base := float64(m.Results[chameleon.PolicyPoM]["bwaves"].Ctrl.Swaps)
	if base > 0 {
		b.ReportMetric(float64(m.Results[chameleon.PolicyChameleonOpt]["bwaves"].Ctrl.Swaps)/base, "opt-swaps/pom")
	}
}

func BenchmarkFig18(b *testing.B) {
	o := benchOpts("bwaves")
	m := benchMatrix(b, o)
	_ = experiments.Fig18(m).String()
	base := m.Results[chameleon.PolicyPoM]["bwaves"].GeoMeanIPC
	b.ReportMetric(m.Results[chameleon.PolicyChameleonOpt]["bwaves"].GeoMeanIPC/base, "opt-ipc/pom")
}

func BenchmarkFig19(b *testing.B) {
	o := benchOpts("bwaves")
	m := benchMatrix(b, o)
	_ = experiments.Fig19(m).String()
	b.ReportMetric(m.Results[chameleon.PolicyChameleonOpt]["bwaves"].AMAT, "opt-amat-cycles")
}

func BenchmarkFig20(b *testing.B) {
	t := benchFigure(b, benchOpts("bwaves"), "fig20")
	base := tableValue(b, t, "bwaves", "first-touch")
	b.ReportMetric(tableValue(b, t, "bwaves", "chameleon-opt")/base, "opt-ipc/first-touch")
}

func BenchmarkFig21(b *testing.B) {
	_ = benchFigure(b, benchOpts("bwaves"), "fig21").String()
}

func BenchmarkFig22(b *testing.B) {
	o := benchOpts("bwaves")
	m := benchMatrix(b, o)
	_ = experiments.Fig22(m).String()
	base := m.Results[chameleon.PolicyPolymorphic]["bwaves"].GeoMeanIPC
	b.ReportMetric(m.Results[chameleon.PolicyChameleon]["bwaves"].GeoMeanIPC/base, "cham-ipc/polymorphic")
}

func BenchmarkFig23(b *testing.B) {
	_ = benchFigure(b, benchOpts("bwaves"), "fig23").String()
}

func BenchmarkOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.Overhead().String()
	}
	b.ReportMetric(experiments.PaperOverheadParams().OverheadPercent(), "overhead%")
}

// --- ablations of DESIGN.md's design decisions -------------------------

// runPolicy is the common single-run helper for the ablations.
func runPolicy(b *testing.B, cfg chameleon.Config, pk chameleon.Policy, wl string) *chameleon.Result {
	b.Helper()
	prof, err := chameleon.Workload(wl)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := chameleon.New(chameleon.Options{
		Config:             cfg,
		Policy:             pk,
		Workload:           prof.Scale(cfg.Scale),
		Seed:               42,
		WarmupInstructions: 1_500_000,
	})
	if err != nil {
		b.Fatal(err)
	}
	res, err := sys.Run(200_000)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationSwapThreshold sweeps the PoM competing-counter
// threshold: low thresholds swap streaming segments (bandwidth bloat),
// very high thresholds never promote hot data.
func BenchmarkAblationSwapThreshold(b *testing.B) {
	for _, th := range []int{4, 8, 16, 48, 96} {
		b.Run("th"+itoa(th), func(b *testing.B) {
			cfg := chameleon.DefaultConfig(256)
			cfg.MemSys.SwapThreshold = th
			var res *chameleon.Result
			for i := 0; i < b.N; i++ {
				res = runPolicy(b, cfg, chameleon.PolicyPoM, "bwaves")
			}
			b.ReportMetric(res.StackedHitRate*100, "hit%")
			b.ReportMetric(float64(res.Ctrl.Swaps), "swaps")
			b.ReportMetric(res.GeoMeanIPC, "ipc")
		})
	}
}

// BenchmarkAblationSRTCache compares an idealised SRAM remapping table
// (0 = no miss modelling) against realistic on-die SRT cache sizes.
func BenchmarkAblationSRTCache(b *testing.B) {
	for _, entries := range []int{0, 1024, 32768} {
		b.Run("entries"+itoa(entries), func(b *testing.B) {
			cfg := chameleon.DefaultConfig(256)
			cfg.MemSys.SRTCacheEntries = entries
			var res *chameleon.Result
			for i := 0; i < b.N; i++ {
				res = runPolicy(b, cfg, chameleon.PolicyChameleonOpt, "bwaves")
			}
			b.ReportMetric(res.AMAT, "amat-cycles")
			b.ReportMetric(res.GeoMeanIPC, "ipc")
		})
	}
}

// BenchmarkAblationSegmentSize contrasts the 2 KB segments of PoM [25]
// with CAMEO's 64 B congruence groups (the paper's §VI-G discussion):
// small segments cut swap bandwidth but lose spatial locality.
func BenchmarkAblationSegmentSize(b *testing.B) {
	for _, pk := range []chameleon.Policy{chameleon.PolicyPoM, chameleon.PolicyCAMEO} {
		b.Run(pk.String(), func(b *testing.B) {
			cfg := chameleon.DefaultConfig(256)
			var res *chameleon.Result
			for i := 0; i < b.N; i++ {
				res = runPolicy(b, cfg, pk, "bwaves")
			}
			b.ReportMetric(res.StackedHitRate*100, "hit%")
			b.ReportMetric(float64(res.Ctrl.SwapBytes)/1e6, "swap-MB")
			b.ReportMetric(res.GeoMeanIPC, "ipc")
		})
	}
}

// BenchmarkAblationClearing measures the cost of the security clearing
// on cache<->PoM transitions (§V-D2).
func BenchmarkAblationClearing(b *testing.B) {
	for _, clearing := range []bool{false, true} {
		name := "off"
		if clearing {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			cfg := chameleon.DefaultConfig(256)
			cfg.MemSys.ClearOnModeSwitch = clearing
			var res *chameleon.Result
			for i := 0; i < b.N; i++ {
				res = runPolicy(b, cfg, chameleon.PolicyChameleonOpt, "bwaves")
			}
			b.ReportMetric(res.GeoMeanIPC, "ipc")
			b.ReportMetric(float64(res.Ctrl.ClearedSegments), "cleared")
		})
	}
}

// BenchmarkRawSimulatorThroughput measures simulator speed itself
// (simulated instructions per second of wall clock).
func BenchmarkRawSimulatorThroughput(b *testing.B) {
	cfg := chameleon.DefaultConfig(256)
	prof, err := chameleon.Workload("bwaves")
	if err != nil {
		b.Fatal(err)
	}
	const instr = 200_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := chameleon.New(chameleon.Options{
			Config:   cfg,
			Policy:   chameleon.PolicyChameleonOpt,
			Workload: prof.Scale(256),
			Seed:     uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Run(instr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(instr*12*b.N)/b.Elapsed().Seconds(), "sim-instr/s")
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationGroupAwareAlloc measures the §VI-G extension: OS
// page placement that maximises cache-capable segment groups, against
// the default uniform (buddy-like) placement.
func BenchmarkAblationGroupAwareAlloc(b *testing.B) {
	for _, alloc := range []chameleon.AllocPolicy{chameleon.AllocShuffled, chameleon.AllocGroupAware} {
		alloc := alloc
		b.Run(alloc.String(), func(b *testing.B) {
			prof, err := chameleon.Workload("bwaves")
			if err != nil {
				b.Fatal(err)
			}
			cfg := chameleon.DefaultConfig(256)
			prof = prof.Scale(256)
			prof.FootprintBytes = cfg.TotalCapacity() * 85 / 100 / 12
			var res *chameleon.Result
			for i := 0; i < b.N; i++ {
				a := alloc
				sys, err := chameleon.New(chameleon.Options{
					Config:             cfg,
					Policy:             chameleon.PolicyChameleonOpt,
					Workload:           prof,
					Alloc:              &a,
					Seed:               42,
					WarmupInstructions: 1_500_000,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res, err = sys.Run(200_000); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.CacheModeFraction*100, "cache-mode%")
			b.ReportMetric(res.StackedHitRate*100, "hit%")
			b.ReportMetric(res.GeoMeanIPC, "ipc")
		})
	}
}

// BenchmarkAblationTHP compares 4 KB and 2 MB (THP) OS pages: THP cuts
// page-management work but coarsens the allocation granularity the
// ISA-Alloc/ISA-Free co-design sees.
func BenchmarkAblationTHP(b *testing.B) {
	for _, thp := range []bool{false, true} {
		name := "4KB"
		if thp {
			name = "2MB-THP"
		}
		b.Run(name, func(b *testing.B) {
			prof, err := chameleon.Workload("bwaves")
			if err != nil {
				b.Fatal(err)
			}
			var res *chameleon.Result
			for i := 0; i < b.N; i++ {
				sys, err := chameleon.New(chameleon.Options{
					Config:             chameleon.DefaultConfig(256),
					Policy:             chameleon.PolicyChameleonOpt,
					Workload:           prof.Scale(256),
					UseTHP:             thp,
					Seed:               42,
					WarmupInstructions: 1_500_000,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res, err = sys.Run(200_000); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.CacheModeFraction*100, "cache-mode%")
			b.ReportMetric(res.GeoMeanIPC, "ipc")
		})
	}
}
