package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"
)

func TestNegativeParallelismDefaults(t *testing.T) {
	o := Options{Parallelism: -4}.Defaults()
	if o.Parallelism < 1 {
		t.Fatalf("negative parallelism not clamped: %d", o.Parallelism)
	}
}

func TestMatrixJoinsAllErrors(t *testing.T) {
	// Scale 3 is not a power of two, so every cell's sim.New fails on
	// config validation. All cells — not just the first — must be
	// reported.
	// The fig23 case runs the same failure through a non-matrix figure.
	o := tiny("bwaves", "GemsFDTD")
	o.Scale = 3
	_, matrixErr := RunMatrix(o)
	_, fig23Err := Run(context.Background(), o, figure(t, "fig23"))
	for name, err := range map[string]error{"matrix": matrixErr, "fig23": fig23Err} {
		if err == nil {
			t.Fatalf("%s: invalid scale should fail every cell", name)
		}
		msg := err.Error()
		for _, wl := range []string{"bwaves", "GemsFDTD"} {
			if !strings.Contains(msg, wl) {
				t.Errorf("%s: joined error missing cell for %s:\n%s", name, wl, msg)
			}
		}
		if n := strings.Count(msg, "\n"); n < 3 {
			t.Errorf("%s: expected many joined cell errors, got %d newline-separated:\n%s", name, n, msg)
		}
	}
}

func TestMatrixContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := tiny("bwaves")
	if _, err := RunMatrixContext(ctx, o); !errors.Is(err, context.Canceled) {
		t.Fatalf("matrix: want context.Canceled, got %v", err)
	}
	if _, err := Run(ctx, o, figure(t, "fig23")); !errors.Is(err, context.Canceled) {
		t.Fatalf("fig23: want context.Canceled, got %v", err)
	}
}

func TestMatrixProgress(t *testing.T) {
	o := tiny("bwaves")
	o.Instructions = 10_000
	o.Warmup = 10_000
	var calls, lastDone, total int
	o.Progress = func(done, _, _, tot int) { calls++; lastDone = done; total = tot }
	if _, err := RunMatrix(o); err != nil {
		t.Fatal(err)
	}
	// 7 standard policies, with flat counted twice (20 and 24 GB).
	if total != 8 || calls != total || lastDone != total {
		t.Fatalf("progress calls=%d lastDone=%d total=%d, want 8/8/8", calls, lastDone, total)
	}
}
