// Command chameleon-sim runs a single heterogeneous-memory simulation
// and prints its statistics.
//
// Usage:
//
//	chameleon-sim -policy chameleon-opt -workload bwaves [-scale 256]
//	              [-instr 500000] [-warmup 4000000] [-ratio 5] [-seed 42]
//	              [-baseline-gb 20] [-autonuma 0.9] [-config machine.json]
//
// -config overlays a JSON configuration document on the scaled default
// machine; use a "CacheLevels" array to run a different cache hierarchy
// (2-level, 4-level, ...) — see README.md for examples.
//
// -list prints the registered policies (with their descriptor flags)
// and the workload catalogue, then exits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"chameleon"
	"chameleon/internal/config"
	"chameleon/internal/experiments"
	"chameleon/internal/policy"
	"chameleon/internal/workload"
)

func main() {
	var (
		policyName = flag.String("policy", "chameleon-opt",
			"memory-system design ("+strings.Join(chameleon.Policies(), ", ")+")")
		wlName     = flag.String("workload", "bwaves", "Table II workload name")
		scale      = flag.Uint64("scale", 256, "capacity scale divisor (1 = full-size 4+20 GB)")
		instr      = flag.Uint64("instr", 500_000, "measured instructions per core")
		warmup     = flag.Uint64("warmup", 4_000_000, "warm-up instructions per core")
		ratio      = flag.Int("ratio", 0, "override the stacked:off-chip ratio (3, 5 or 7)")
		seed       = flag.Uint64("seed", 42, "random seed")
		baselineGB = flag.Uint64("baseline-gb", 24, "flat-baseline capacity in (unscaled) GB")
		autonuma   = flag.Float64("autonuma", 0, "enable AutoNUMA at this threshold (numa-flat only)")
		energy     = flag.Bool("energy", false, "also report DRAM energy and bandwidth utilisation")
		mix        = flag.String("mix", "", "comma-separated workloads, one per core round-robin (overrides -workload)")
		groupAware = flag.Bool("group-aware", false, "use the group-aware OS allocator (paper SVI-G)")
		counters   = flag.Bool("counters", false, "dump every simulation counter (the unified stats snapshot)")
		configPath = flag.String("config", "", "JSON config overlay (e.g. a CacheLevels hierarchy) applied to the scaled default")
		record     = flag.String("record", "", "tee the run's reference stream to this binary trace file (replay with -workload replay:<file>)")
		list       = flag.Bool("list", false, "print the registered policies (with their descriptors) and workload names, then exit")
	)
	flag.Parse()

	if *list {
		printCatalogue()
		return
	}

	if err := run(runCfg{
		policyName: *policyName, wlName: *wlName, scale: *scale,
		instr: *instr, warmup: *warmup, ratio: *ratio, seed: *seed,
		baselineGB: *baselineGB, autonuma: *autonuma,
		energy: *energy, mix: *mix, groupAware: *groupAware,
		counters: *counters, configPath: *configPath, record: *record,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "chameleon-sim:", err)
		os.Exit(1)
	}
}

// printCatalogue lists every registered memory-system design with its
// descriptor flags, then the workload catalogue — the same axes a DSE
// sweep enumerates (see chameleon-dse).
func printCatalogue() {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "POLICY\tTIERS\tISA\tBASELINE\tOS-MANAGED")
	for _, name := range policy.Names() {
		d, err := policy.Lookup(name)
		if err != nil {
			continue
		}
		fmt.Fprintf(tw, "%s\t>=%d\t%s\t%s\t%s\n", name, d.RequiredTiers(),
			yn(d.NeedsISA), yn(d.RequiresBaseline), yn(d.OSManaged))
	}
	tw.Flush()
	fmt.Printf("\nworkloads: %s\n", strings.Join(workload.Names(), ", "))
	fmt.Println("          (or replay:<file>.ctrace to replay a recorded trace)")
}

func yn(b bool) string {
	if b {
		return "yes"
	}
	return "-"
}

type runCfg struct {
	policyName, wlName   string
	scale, instr, warmup uint64
	ratio                int
	seed, baselineGB     uint64
	autonuma             float64
	energy               bool
	mix                  string
	groupAware           bool
	counters             bool
	configPath           string
	record               string
}

// simOptions builds the simulator options the flags describe.
func simOptions(rc runCfg) (chameleon.Options, error) {
	// Any registered design name is accepted; chameleon.New reports
	// unknown names with the full valid set.
	pk := chameleon.Policy(rc.policyName)
	var err error
	cfg := chameleon.DefaultConfig(rc.scale)
	if rc.configPath != "" {
		// The overlay decodes onto the scaled default, so a document may
		// name only the fields it changes (a CacheLevels stack, a
		// memory_tiers stack, CPU or OS parameters, ...).
		b, err := os.ReadFile(rc.configPath)
		if err != nil {
			return chameleon.Options{}, err
		}
		if err := json.Unmarshal(b, &cfg); err != nil {
			return chameleon.Options{}, fmt.Errorf("%s: %w", rc.configPath, err)
		}
		if err := cfg.Validate(); err != nil {
			return chameleon.Options{}, fmt.Errorf("%s: %w", rc.configPath, err)
		}
	}
	if rc.ratio != 0 {
		if cfg, err = cfg.WithRatio(rc.ratio); err != nil {
			return chameleon.Options{}, err
		}
	}
	opts := chameleon.Options{
		Config:             cfg,
		Policy:             pk,
		Seed:               rc.seed,
		WarmupInstructions: rc.warmup,
	}
	// "replay:<file>.ctrace" replays a recorded trace; catalogue names
	// attach the scaled synthetic profile.
	if err := chameleon.UseWorkload(&opts, rc.wlName, rc.scale); err != nil {
		return chameleon.Options{}, err
	}
	if rc.mix != "" {
		for _, name := range strings.Split(rc.mix, ",") {
			p, err := chameleon.Workload(strings.TrimSpace(name))
			if err != nil {
				return chameleon.Options{}, err
			}
			opts.Mix = append(opts.Mix, p.Scale(rc.scale))
		}
	}
	if chameleon.PolicyNeedsBaseline(rc.policyName) {
		opts.BaselineBytes = rc.baselineGB * config.GB / rc.scale
	}
	if rc.autonuma > 0 {
		opts.AutoNUMA = experiments.AutoNUMA(rc.autonuma, rc.warmup, rc.instr)
	}
	if rc.groupAware {
		ga := chameleon.AllocGroupAware
		opts.Alloc = &ga
	}
	return opts, nil
}

func run(rc runCfg) error {
	opts, err := simOptions(rc)
	if err != nil {
		return err
	}
	var rec *chameleon.TraceWriter
	var recFile *os.File
	if rc.record != "" {
		// Tee every per-core reference the run consumes (warm-up
		// included) into a binary trace; the file replays this exact run
		// via -workload replay:<file>.
		if recFile, err = os.Create(rc.record); err != nil {
			return err
		}
		defer recFile.Close()
		rec = chameleon.NewTraceWriter(recFile)
		rec.Meta = fmt.Sprintf("policy=%s seed=%d scale=%d instr=%d warmup=%d",
			rc.policyName, rc.seed, rc.scale, rc.instr, rc.warmup)
		opts.TraceSink = rec
	}
	sys, err := chameleon.New(opts)
	if err != nil {
		return err
	}
	res, err := sys.Run(rc.instr)
	if err != nil {
		return err
	}
	if rec != nil {
		// Close flushes the footer; a write failure anywhere in the run
		// surfaces here.
		if err := rec.Close(); err != nil {
			return err
		}
		if err := recFile.Close(); err != nil {
			return err
		}
	}

	fmt.Printf("policy            %s\n", res.Policy)
	fmt.Printf("workload          %s (x%d cores)\n", res.Workload, len(res.Cores))
	fmt.Printf("geomean IPC       %.4f\n", res.GeoMeanIPC)
	fmt.Printf("stacked hit rate  %.2f%%\n", res.StackedHitRate*100)
	fmt.Printf("avg mem latency   %.1f cycles\n", res.AMAT)
	for _, lv := range res.Levels {
		fmt.Printf("%-18s%d accesses, %.2f%% miss rate, %d writebacks\n",
			strings.ToLower(lv.Level)+" cache", lv.Accesses, lv.MissRate()*100, lv.Writebacks)
	}
	fmt.Printf("cache-mode groups %.2f%%\n", res.CacheModeFraction*100)
	fmt.Printf("CPU utilisation   %.2f%%\n", res.CPUUtilization*100)
	fmt.Printf("segment swaps     %d (%.1f MB moved)\n", res.Ctrl.Swaps, float64(res.Ctrl.SwapBytes)/float64(config.MB))
	fmt.Printf("cache fills       %d, dirty writebacks %d\n", res.Ctrl.Fills, res.Ctrl.Writebacks)
	fmt.Printf("ISA alloc/free    %d / %d (proactive moves %d, cleared %d)\n",
		res.Ctrl.ISAAllocs, res.Ctrl.ISAFrees, res.Ctrl.ProactiveMoves, res.Ctrl.ClearedSegments)
	fmt.Printf("page faults       %d major, %d minor (%d evictions)\n",
		res.OS.MajorFaults, res.OS.MinorFaults, res.OS.Evictions)
	for _, tr := range res.Tiers {
		d := tr.Device
		label := fmt.Sprintf("%s (%s)", tr.Tier, tr.Kind)
		line := fmt.Sprintf("%-18s%.0f reads, %.0f writes, %.1f%% occupied",
			label, d["reads"], d["writes"], tr.Occupancy*100)
		switch tr.Kind {
		case config.TierDRAM:
			line += fmt.Sprintf(", %.1f%% row hits", rowHitPct(d["row_hits"], d["reads"]+d["writes"]))
		case config.TierNVM:
			line += fmt.Sprintf(", wear max %.0f writes/block (%.0f worn)", d["max_wear"], d["worn_blocks"])
		case config.TierCXL:
			line += fmt.Sprintf(", %.0f link waits", d["link_waits"])
		}
		fmt.Println(line)
	}
	if len(res.NUMATimeline) > 0 {
		fmt.Printf("autonuma          %d epochs, %d migrations, %d failures\n",
			len(res.NUMATimeline), res.OS.Migrations, res.OS.MigrateFails)
	}
	if rc.energy {
		window := res.MeasuredCycles()
		seconds := float64(window) / opts.Config.CPU.FreqHz
		for i, t := range sys.Tiers() {
			e := sys.TierEnergy(i, window)
			fmt.Printf("%-18s%.2f mJ (%.0f mW avg), %.1f%% bus utilisation\n",
				t.Name()+" energy", e.TotalNJ()/1e6, e.AveragePowerMW(seconds),
				t.Dev.BusyFraction(window)*100)
		}
	}
	fmt.Println("\nper-core results:")
	for i, c := range res.Cores {
		fmt.Printf("  core %2d: IPC %.4f  MPKI %6.2f  fault cycles %d\n", i, c.IPC, c.MPKI, c.FaultCycles)
	}
	if rc.counters {
		snap := res.Snapshot()
		fmt.Println("\ncounters:")
		for _, k := range snap.Keys() {
			fmt.Printf("  %-28s %g\n", k, snap[k])
		}
	}
	return nil
}

func rowHitPct(hits, total float64) float64 {
	if total == 0 {
		return 0
	}
	return hits / total * 100
}
