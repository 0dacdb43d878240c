package server

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"chameleon/internal/memtrace"
	"chameleon/internal/sim"
)

// recordTrace captures fastSpec's run into a trace file and returns
// the path plus the original result.
func recordTrace(t *testing.T, dir string, seed uint64) (string, *sim.Result) {
	t.Helper()
	spec, err := fastSpec(seed).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	o, err := spec.Cell().Options()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "run.ctrace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := memtrace.NewWriter(f)
	o.TraceSink = w
	sys, err := sim.New(o)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(spec.Instructions)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, res
}

// traceSpec is fastSpec retargeted at a recorded trace.
func traceSpec(path string, seed uint64) JobSpec {
	s := fastSpec(seed)
	s.Workload = ""
	s.TracePath = path
	return s
}

func TestTraceSpecNormalize(t *testing.T) {
	path, _ := recordTrace(t, t.TempDir(), 3)

	viaPath, err := traceSpec(path, 3).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if viaPath.TraceSHA256 == "" {
		t.Error("Normalize left TraceSHA256 empty")
	}

	// The "replay:<path>" workload spelling normalizes into the same
	// spec — and therefore the same cache hash.
	viaName := fastSpec(3)
	viaName.Workload = "replay:" + path
	n, err := viaName.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.TracePath != path || n.Workload != "" {
		t.Errorf("replay: workload normalized to TracePath=%q Workload=%q", n.TracePath, n.Workload)
	}
	if n.Hash() != viaPath.Hash() {
		t.Error("replay: workload and trace_path hash differently")
	}

	// Same content at a different path: same hash (cache keys on
	// content), despite the differing TracePath.
	dir2 := t.TempDir()
	copyPath := filepath.Join(dir2, "copy.ctrace")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(copyPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	viaCopy, err := traceSpec(copyPath, 3).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if viaCopy.Hash() != viaPath.Hash() {
		t.Error("identical trace content at a different path missed the cache hash")
	}
}

func TestTraceSpecRejects(t *testing.T) {
	dir := t.TempDir()
	path, _ := recordTrace(t, dir, 3)

	both := traceSpec(path, 3)
	both.Workload = "bwaves"
	if _, err := both.Normalize(); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("workload+trace_path error = %v, want mutually exclusive", err)
	}

	missing := traceSpec(filepath.Join(dir, "nope.ctrace"), 3)
	if _, err := missing.Normalize(); err == nil {
		t.Error("missing trace file accepted")
	}

	// A corrupt file must be rejected at submission, naming the block.
	bad := append([]byte(nil), mustRead(t, path)...)
	bad[len(bad)/2] ^= 0x40
	badPath := filepath.Join(dir, "bad.ctrace")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := traceSpec(badPath, 3).Normalize(); err == nil || !strings.Contains(err.Error(), "block") {
		t.Errorf("corrupt trace error = %v, want a block-naming *FormatError", err)
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestTraceJobReproducesRecordedRun is the server leg of the
// determinism gate: a job replaying a recorded run returns the same
// headline results as the run that produced the recording.
func TestTraceJobReproducesRecordedRun(t *testing.T) {
	path, want := recordTrace(t, t.TempDir(), 3)
	s := newTestServer(t, Options{Workers: 1})
	j, err := s.Submit(traceSpec(path, 3))
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j, 30*time.Second)
	if st.State != StateDone {
		t.Fatalf("state = %s (err %q), want done", st.State, st.Error)
	}
	body, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	var got sim.Result
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.GeoMeanIPC != want.GeoMeanIPC || got.MaxCycles != want.MaxCycles ||
		got.StackedHitRate != want.StackedHitRate || got.Workload != want.Workload {
		t.Fatalf("replayed job diverged: got IPC %v cycles %d hit %v wl %q, want IPC %v cycles %d hit %v wl %q",
			got.GeoMeanIPC, got.MaxCycles, got.StackedHitRate, got.Workload,
			want.GeoMeanIPC, want.MaxCycles, want.StackedHitRate, want.Workload)
	}
}

// TestTraceJobDetectsFileChange: a trace edited between submission and
// execution must fail, not serve a result under the stale cache key.
func TestTraceJobDetectsFileChange(t *testing.T) {
	path, _ := recordTrace(t, t.TempDir(), 3)
	spec, err := traceSpec(path, 3).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	// Re-record with a different seed: still a valid trace, different
	// content.
	spec2, err := fastSpec(4).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	o, err := spec2.Cell().Options()
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := memtrace.NewWriter(f)
	o.TraceSink = w
	sys, err := sim.New(o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(spec2.Instructions); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := spec.Cell().Options(); err == nil || !strings.Contains(err.Error(), "changed since submission") {
		t.Errorf("Cell.Options on a changed trace = %v, want changed-since-submission error", err)
	}
}
