// Command chameleon-bench is the end-to-end and per-layer performance
// benchmark of the simulator and of chamd, the job service built on it.
//
// Run every workload, each in a child process of its own so that peak
// RSS is per workload, from this directory:
//
//	go run . -seed 42            # end-to-end metrics
//	go run . -seed 42 -trace 1   # plus each workload's traced run
//
// Run one workload in this process; the last line of output is a JSON
// object with the run's metrics and its output-check tally:
//
//	go run . -workload sim-missheavy -seed 7 -seconds 15 -trace 0
//
// README.md describes the workloads, the metrics and the layer split.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// workloads lists every workload in run order.
var workloads = []struct {
	name string
	run  func(cfg runConfig, r *report) error
}{
	{"sim-missheavy", missHeavy.run},
	{"sim-resident", resident.run},
	{"sim-churn", churn.run},
	{"chamd-hit", serviceLoad{kindHit}.run},
	{"chamd-miss", serviceLoad{kindMiss}.run},
	{"dse-sweep", serviceLoad{kindSweep}.run},
}

// runConfig sizes one workload run.
type runConfig struct {
	seed uint64
	// seconds is how long the workload's closed loop measures.
	seconds float64
	// trace selects the traced run, which reports per-layer metrics
	// instead of end-to-end ones.
	trace bool
	// minRuns is the fewest simulations a sim loop runs, however short
	// seconds is.
	minRuns int
	// maxRequests caps a service workload's traffic (0: bounded by
	// seconds only).
	maxRequests int
	// shrink divides every simulated instruction count (1: full size).
	shrink uint64
}

func main() {
	name := flag.String("workload", "", "run one workload in this process (default: every workload, each in a child process)")
	seed := flag.Uint64("seed", 42, "seed the workload inputs are made from")
	seconds := flag.Float64("seconds", 15, "measurement time of one run, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run, which reports per-layer metrics")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *name == "" {
		if err := runAll(*seed, *seconds, *trace == 1); err != nil {
			fmt.Fprintln(os.Stderr, "chameleon-bench:", err)
			os.Exit(1)
		}
		return
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, minRuns: 5, shrink: 1}
	r, err := runWorkload(*name, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chameleon-bench:", err)
		os.Exit(1)
	}
	if err := r.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "chameleon-bench:", err)
		os.Exit(1)
	}
}

// runAll runs every workload in a child process of its own, then its
// traced run when trace is set.
func runAll(seed uint64, seconds float64, trace bool) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	modes := []string{"0"}
	if trace {
		modes = append(modes, "1")
	}
	var errs []error
	for _, w := range workloads {
		for _, mode := range modes {
			cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", mode)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				errs = append(errs, fmt.Errorf("%s (trace %s): %w", w.name, mode, err))
			}
		}
	}
	return errors.Join(errs...)
}

// runWorkload runs one workload in this process.
func runWorkload(name string, cfg runConfig) (*report, error) {
	for _, w := range workloads {
		if w.name != name {
			continue
		}
		r := &report{workload: name, metrics: map[string]metric{}, samples: map[string]int{}}
		if err := w.run(cfg, r); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if !cfg.trace {
			rss, err := peakRSSMB()
			if err != nil {
				return nil, err
			}
			r.add("peak_rss_mb", rss, "MB", 1)
		}
		return r, nil
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (one of %s)", name, strings.Join(names, ", "))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics and its output-check tally.
type report struct {
	workload string
	names    []string // report order
	metrics  map[string]metric
	samples  map[string]int
	// attempted counts checked operations; failed those whose outputs
	// were wrong or that returned an error.
	attempted, failed int
	// notes are printed lines that are not metrics: the result digest,
	// the host factor, derived figures.
	notes [][2]string
}

// note records a printed `name value` line that is not a metric.
func (r *report) note(name, format string, args ...any) {
	r.notes = append(r.notes, [2]string{name, fmt.Sprintf(format, args...)})
}

// add records a metric measured over n samples.
func (r *report) add(name string, v float64, unit string, n int) {
	if _, dup := r.metrics[name]; !dup {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = n
}

// op counts one checked operation; a non-nil err marks it failed.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "%s: operation failed: %v\n", r.workload, err)
	}
}

// print writes one `workload metric value unit n=samples` line per
// metric, the notes and the failure line, then the JSON result line.
func (r *report) print(w io.Writer) error {
	for _, name := range r.names {
		m := r.metrics[name]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("%s: metric %s is not a number", r.workload, name)
		}
		fmt.Fprintf(w, "%-14s %-30s %16.6g %-9s n=%d\n", r.workload, name, m.Value, m.Unit, r.samples[name])
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "%-14s %-30s %s\n", r.workload, n[0], n[1])
	}
	fmt.Fprintf(w, "%-14s %-30s %16.6g %-9s n=%d\n", r.workload, "ops_failed_frac",
		float64(r.failed)/float64(max(r.attempted, 1)), "frac", r.attempted)
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// peakRSSMB reads this process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// quantile returns the q-quantile of xs, interpolating between the
// nearest ranks; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
