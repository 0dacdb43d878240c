package sim

import (
	"reflect"
	"testing"
)

// threadsVariants are the feature dimensions TestParallelEquivalence
// runs at every Threads value: timeline sampling, trace capture, and
// oversubscribed memory (evictVariant).
var threadsVariants = []variant{
	{name: "base"},
	{name: "timeline", mutate: func(_ testing.TB, o *Options) {
		o.TimelineEpochCycles = 200_000
	}},
	{name: "capture", mutate: func(_ testing.TB, o *Options) {
		o.TraceSink = &memSink{}
	}},
	evictVariant,
}

// runThreads runs opts at the given Threads value and returns the
// result together with the captured trace, if opts records one.
func runThreads(t *testing.T, opts Options, threads int) (*Result, *memSink) {
	t.Helper()
	opts.Threads = threads
	var sink *memSink
	if opts.TraceSink != nil {
		sink = &memSink{}
		opts.TraceSink = sink
	}
	sys, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(300_000)
	if err != nil {
		t.Fatal(err)
	}
	return res, sink
}

// TestParallelEquivalence: Options.Threads is deprecated and ignored
// (the simulator has one engine, and the parallel engine the name
// refers to is gone), but cmd/chameleon-bench still sets it. A run at
// any Threads value must therefore reproduce the Threads=1 run bit for
// bit — per-core results, device and policy counters, timeline points,
// captured traces — for every registered policy.
func TestParallelEquivalence(t *testing.T) {
	for _, kind := range PolicyNames() {
		for _, v := range threadsVariants {
			t.Run(kind+"/"+v.name, func(t *testing.T) {
				opts := baseOpts(t, kind)
				if v.mutate != nil {
					v.mutate(t, &opts)
				}
				seq, seqSink := runThreads(t, opts, 1)
				switch v.name {
				case "timeline":
					if len(seq.Timeline) == 0 {
						t.Fatal("no timeline points sampled; variant is not exercising sampling")
					}
				case "capture":
					if len(seqSink.refs) == 0 {
						t.Fatal("no references captured")
					}
				case "evict":
					if seq.OS.Evictions == 0 {
						t.Fatal("no evictions occurred; variant is not exercising eviction")
					}
				}
				for _, threads := range []int{2, 4, 8} {
					res, sink := runThreads(t, opts, threads)
					if !reflect.DeepEqual(seq, res) {
						t.Errorf("threads=%d diverged from threads=1:\nthreads=1: %+v\nthreads=%d: %+v",
							threads, seq, threads, res)
					}
					if !reflect.DeepEqual(seqSink, sink) {
						t.Errorf("threads=%d captured trace differs from threads=1", threads)
					}
				}
			})
		}
	}
}

// TestParallelEquivalenceFaults repeats the Threads check with
// prefaulting disabled, so every page is demand-faulted mid-run.
func TestParallelEquivalenceFaults(t *testing.T) {
	opts := baseOpts(t, string(PolicyChameleonOpt))
	opts.SkipPrefault = true
	seq, _ := runThreads(t, opts, 1)
	if seq.OS.MinorFaults == 0 {
		t.Fatal("no faults occurred; the test is not exercising the fault path")
	}
	for _, threads := range []int{2, 4, 8} {
		if res, _ := runThreads(t, opts, threads); !reflect.DeepEqual(seq, res) {
			t.Errorf("threads=%d diverged from threads=1 under demand faulting", threads)
		}
	}
}
