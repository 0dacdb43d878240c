// Command chameleon-dse answers design questions: it expands, runs,
// and summarizes declarative design-space sweeps over the simulator's
// pluggable axes (policy, workload, stacked ratio, capacity scale,
// seed, cache hierarchy, memory-tier stack), extracting the Pareto
// front over configurable objectives.
//
// Usage:
//
//	chameleon-dse expand -spec sweep.json            # list the cells a sweep expands to
//	chameleon-dse run    -spec sweep.json [-json]    # evaluate in-process, print the front
//	chameleon-dse run    -spec sweep.json -server http://host:8080   # submit as a chamd dse job
//	chameleon-dse front  -result result.json         # re-print a saved sweep result's front
//
// The spec file is a JSON dse.Spec ("-" reads stdin; omitted entirely
// sweeps the default axes). Empty axes take defaults: the paper's
// standard policies, all Table II workloads, one default
// ratio/scale/seed. Objectives default to IPC up, total memory
// capacity down, total memory energy down.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"text/tabwriter"
	"time"

	"chameleon"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "expand":
		err = cmdExpand(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "front":
		err = cmdFront(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "chameleon-dse: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "chameleon-dse:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  chameleon-dse expand -spec sweep.json [-json]
  chameleon-dse run    -spec sweep.json [-instr N] [-warmup N] [-par N] [-json]
  chameleon-dse run    -spec sweep.json -server URL [-timeout 30m]
  chameleon-dse front  -result result.json [-json]
`)
}

// loadSpec reads a dse.Spec from path ("-" = stdin, "" = empty spec).
func loadSpec(path string) (chameleon.DSESpec, error) {
	var spec chameleon.DSESpec
	if path == "" {
		return spec, nil
	}
	var (
		b   []byte
		err error
	)
	if path == "-" {
		b, err = io.ReadAll(os.Stdin)
	} else {
		b, err = os.ReadFile(path)
	}
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return spec, fmt.Errorf("parse %s: %w", path, err)
	}
	return spec, nil
}

func cmdExpand(args []string) error {
	fs := flag.NewFlagSet("expand", flag.ExitOnError)
	specPath := fs.String("spec", "", "sweep spec JSON file (- = stdin, empty = all defaults)")
	asJSON := fs.Bool("json", false, "emit the cell list as JSON")
	_ = fs.Parse(args)

	spec, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	cells, err := spec.Expand()
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(cells)
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "CELL\tPOLICY\tWORKLOAD\tRATIO\tSCALE\tSEED\tCACHE\tTIERS")
	for _, c := range cells {
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%d\t%d\t%s\t%s\n",
			c.Index, c.Policy, c.Workload, orDefault(c.Ratio), c.Scale, c.Seed,
			variantName(c.CacheVariant), variantName(c.TierVariant))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Printf("%d cells\n", len(cells))
	return nil
}

func orDefault(ratio int) string {
	if ratio == 0 {
		return "default"
	}
	return fmt.Sprintf("%d", ratio)
}

func variantName(v int) string {
	if v < 0 {
		return "default"
	}
	return fmt.Sprintf("variant[%d]", v)
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var (
		specPath = fs.String("spec", "", "sweep spec JSON file (- = stdin, empty = all defaults)")
		scale    = fs.Uint64("scale", 0, "default capacity-scale divisor when the spec sweeps no scales")
		instr    = fs.Uint64("instr", 50_000, "measured instructions per core, per cell")
		warmup   = fs.Uint64("warmup", 500_000, "warm-up instructions per core, per cell")
		seed     = fs.Uint64("seed", 0, "default seed when the spec sweeps no seeds")
		par      = fs.Int("par", 0, "concurrently evaluated cells (0 = GOMAXPROCS)")
		asJSON   = fs.Bool("json", false, "emit the full sweep result as JSON")
		srv      = fs.String("server", "", "submit to this chamd base URL instead of running in-process")
		timeout  = fs.Duration("timeout", 30*time.Minute, "overall deadline")
	)
	_ = fs.Parse(args)

	spec, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, *timeout)
	defer cancel()

	var res *chameleon.DSEResult
	if *srv != "" {
		res, err = runRemote(ctx, *srv, spec, *scale, *instr, *warmup, *seed, *par)
	} else {
		o := chameleon.ExperimentOptions{
			Scale: *scale, Instructions: *instr, Warmup: *warmup, Seed: *seed,
			Parallelism: *par,
			Progress: func(done, _, pruned, total int) {
				fmt.Fprintf(os.Stderr, "\r%d/%d cells", done+pruned, total)
			},
		}
		res, err = chameleon.RunDSE(ctx, o, spec)
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	printResult(res)
	return nil
}

// runRemote submits the sweep as a chamd dse job and waits for it.
func runRemote(ctx context.Context, base string, spec chameleon.DSESpec,
	scale, instr, warmup, seed uint64, par int) (*chameleon.DSEResult, error) {
	c := chameleon.NewClient(base)
	st, err := c.Submit(ctx, chameleon.JobSpec{
		Kind: chameleon.JobKindDSE, DSE: &spec,
		Scale: scale, Instructions: instr, Warmup: warmup, Seed: seed,
		Parallelism: par,
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "job %s submitted\n", st.ID)
	fin, err := c.Wait(ctx, st.ID)
	if err != nil {
		return nil, err
	}
	if fin.State != chameleon.JobDone {
		return nil, fmt.Errorf("job %s ended %s: %s", fin.ID, fin.State, fin.Error)
	}
	return c.DSEResult(ctx, st.ID)
}

func cmdFront(args []string) error {
	fs := flag.NewFlagSet("front", flag.ExitOnError)
	resultPath := fs.String("result", "-", "sweep result JSON file (- = stdin)")
	asJSON := fs.Bool("json", false, "emit only the front points as JSON")
	_ = fs.Parse(args)

	var (
		b   []byte
		err error
	)
	if *resultPath == "-" {
		b, err = io.ReadAll(os.Stdin)
	} else {
		b, err = os.ReadFile(*resultPath)
	}
	if err != nil {
		return err
	}
	var res chameleon.DSEResult
	if err := json.Unmarshal(b, &res); err != nil {
		return fmt.Errorf("parse %s: %w", *resultPath, err)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res.Front)
	}
	printResult(&res)
	return nil
}

// printResult renders the sweep accounting and its Pareto front as a
// table, objective columns in spec order.
func printResult(res *chameleon.DSEResult) {
	fmt.Printf("cells: %d total, %d evaluated (%d cached), %d pruned, %d dominated, %d on the front\n",
		res.TotalCells, res.Evaluated, res.Cached, res.Pruned, res.Dominated, len(res.Front))
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "CELL\tPOLICY\tWORKLOAD\tRATIO\tSCALE\tSEED")
	for _, o := range res.Objectives {
		fmt.Fprintf(tw, "\t%s (%s)", o.Key, o.Sense)
	}
	fmt.Fprintln(tw)
	front := append([]chameleon.DSEPoint(nil), res.Front...)
	sort.SliceStable(front, func(i, k int) bool { return front[i].Cell.Index < front[k].Cell.Index })
	for _, p := range front {
		c := p.Cell
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%d\t%d", c.Index, c.Policy, c.Workload, orDefault(c.Ratio), c.Scale, c.Seed)
		for _, v := range p.Values {
			fmt.Fprintf(tw, "\t%.4g", v)
		}
		fmt.Fprintln(tw)
	}
	_ = tw.Flush()
}
