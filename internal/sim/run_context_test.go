package sim

import (
	"context"
	"errors"
	"testing"
	"time"

	"chameleon/internal/config"
	"chameleon/internal/workload"
)

func testOptions(t *testing.T) Options {
	t.Helper()
	prof, err := workload.ByName("bwaves")
	if err != nil {
		t.Fatal(err)
	}
	return Options{
		Config:   config.Default(1024),
		Policy:   PolicyChameleonOpt,
		Workload: prof.Scale(1024),
		Seed:     7,
	}
}

func TestRunOnlyOnce(t *testing.T) {
	sys, err := New(testOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	// A zero budget is rejected before the run starts and must not
	// consume the single allowed run.
	if _, err := sys.Run(0); err == nil {
		t.Fatal("zero budget should fail")
	}
	if _, err := sys.Run(10_000); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if _, err := sys.Run(10_000); err == nil {
		t.Fatal("second Run on the same System should fail")
	}
}

func TestRunContextCanceledBeforeStart(t *testing.T) {
	sys, err := New(testOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.RunContext(ctx, 1_000_000); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestRunContextCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel from a progress callback a few epochs in, so the cancel
	// provably lands while the simulation loop is executing.
	o := testOptions(t)
	o.TimelineEpochCycles = 50_000
	o.Progress = func(TimelinePoint) { cancel() }
	sys, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunContext(ctx, 1<<40); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestRunContextDeadlineWithoutTimeline: with no timeline sampling no
// Progress callback fires, so only the step loop's own cancellation
// probe can stop a run. A deadline must end an effectively endless
// run-ahead run promptly.
func TestRunContextDeadlineWithoutTimeline(t *testing.T) {
	o := testOptions(t)
	// Prefaulting polls the context on its own; skipping it makes the
	// deadline land in the step loop.
	o.SkipPrefault = true
	sys, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	if sys.horizon != horizonOpen {
		t.Fatal("options do not admit run-ahead; the test would not reach the run-ahead loop")
	}
	const deadline = 50 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	if _, err := sys.RunContext(ctx, 1<<40); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	// The probe runs every few thousand references; seconds of slack
	// absorb a loaded or race-instrumented host.
	if took := time.Since(start); took > deadline+5*time.Second {
		t.Fatalf("RunContext returned %v after a %v deadline", took, deadline)
	}
}

func TestProgressCallback(t *testing.T) {
	o := testOptions(t)
	o.TimelineEpochCycles = 20_000
	var points int
	o.Progress = func(TimelinePoint) { points++ }
	sys, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(100_000)
	if err != nil {
		t.Fatal(err)
	}
	if points == 0 {
		t.Fatal("progress callback never fired")
	}
	if points != len(res.Timeline) {
		t.Fatalf("progress fired %d times, timeline has %d points", points, len(res.Timeline))
	}
}
