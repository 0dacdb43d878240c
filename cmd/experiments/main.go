// Command experiments regenerates the tables and figures of the
// CHAMELEON paper's evaluation.
//
// Usage:
//
//	experiments [-exp all|table1|table2|fig2a|fig2b|fig2c|fig3|fig4|fig5|
//	             fig15|fig16|fig17|fig18|fig19|fig20|fig21|fig22|fig23|overhead]
//	            [-scale N] [-instr N] [-warmup N] [-workloads a,b,c] [-csv]
//
// Results are printed as aligned tables (or CSV with -csv). Scale 1 is
// the paper's full-size 4 GB + 20 GB machine. At the default scale of
// 256 the whole suite (354 unique simulations, -parallel at a time)
// takes about 3.6 minutes on a 2-CPU host (BENCH_repro.json).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"chameleon/internal/experiments"
	"chameleon/internal/stats"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment to run (all, table1, table2, fig2a..fig23, overhead)")
		scale     = flag.Uint64("scale", 256, "capacity scale divisor (1 = full size)")
		instr     = flag.Uint64("instr", 500_000, "measured instructions per core")
		warmup    = flag.Uint64("warmup", 4_000_000, "fast-forward warm-up instructions per core")
		seed      = flag.Uint64("seed", 42, "random seed")
		workloads = flag.String("workloads", "", "comma-separated workload subset (default: all)")
		parallel  = flag.Int("parallel", 0, "max concurrent simulations (default GOMAXPROCS)")
		csv       = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		outDir    = flag.String("out", "", "also write each result as a CSV file into this directory")
	)
	flag.Parse()

	o := experiments.Options{
		Scale:        *scale,
		Instructions: *instr,
		Warmup:       *warmup,
		Seed:         *seed,
		Parallelism:  *parallel,
	}
	if *workloads != "" {
		o.Workloads = strings.Split(*workloads, ",")
	}
	o = o.Defaults()

	if err := run(*exp, o, *csv, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// writeCSV stores one result table under dir as <slug>.csv.
func writeCSV(dir, name string, t *stats.Table) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	slug := strings.SplitN(name, ":", 2)[0]
	slug = strings.ToLower(strings.ReplaceAll(strings.TrimSpace(slug), " ", "_"))
	return os.WriteFile(filepath.Join(dir, slug+".csv"), []byte(t.CSV()), 0o644)
}

// run plans the selected figures, simulates their unique cells once and
// prints the tables in evaluation order.
func run(exp string, o experiments.Options, csv bool, outDir string) error {
	var figs []experiments.Figure
	for _, f := range experiments.Figures {
		if exp == "all" || exp == f.Name {
			figs = append(figs, f)
		}
	}
	if len(figs) == 0 {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	start := time.Now()
	fmt.Fprintf(os.Stderr, "running %s (scale %d, %d workloads)...\n", exp, o.Scale, len(o.Workloads))
	o.Progress = func(done, _, _, total int) { fmt.Fprintf(os.Stderr, "\rcells %d/%d", done, total) }
	tables, err := experiments.Run(context.Background(), o, figs...)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "\ndone in %s\n", time.Since(start).Round(time.Second))
	for i, f := range figs {
		fmt.Printf("== %s ==\n", f.Title)
		if csv {
			fmt.Print(tables[i].CSV())
		} else {
			fmt.Print(tables[i].String())
		}
		fmt.Println()
		if err := writeCSV(outDir, f.Title, tables[i]); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: writing csv:", err)
		}
	}
	return nil
}
