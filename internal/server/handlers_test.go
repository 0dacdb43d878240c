package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newHTTPServer(t *testing.T, opts Options) (*Server, *httptest.Server, *Client) {
	t.Helper()
	s := newTestServer(t, opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, NewClient(ts.URL)
}

func TestHTTPEndToEnd(t *testing.T) {
	_, _, c := newHTTPServer(t, Options{Workers: 2})
	ctx := context.Background()

	if !c.Healthy(ctx) {
		t.Fatal("healthz not ok")
	}
	wls, err := c.Workloads(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(wls) != 14 {
		t.Fatalf("workloads = %d, want 14", len(wls))
	}
	for _, w := range wls {
		if w.Name == "" || w.FootprintBytes == 0 {
			t.Fatalf("bad workload entry: %+v", w)
		}
	}

	st, err := c.Submit(ctx, fastSpec(40))
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Hash == "" {
		t.Fatalf("submit status incomplete: %+v", st)
	}
	fin, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone {
		t.Fatalf("state = %s (err %q)", fin.State, fin.Error)
	}
	res, err := c.SimResult(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.GeoMeanIPC <= 0 || res.Policy == "" {
		t.Fatalf("implausible result: %+v", res)
	}

	// Duplicate submit over HTTP is a cache hit, terminal on arrival.
	st2, err := c.Submit(ctx, fastSpec(40))
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != StateDone || !st2.Cached {
		t.Fatalf("duplicate: state=%s cached=%v", st2.State, st2.Cached)
	}
}

func TestHTTPCancel(t *testing.T) {
	_, _, c := newHTTPServer(t, Options{Workers: 1})
	ctx := context.Background()
	st, err := c.Submit(ctx, slowSpec(41))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until it is running, then DELETE it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur, err := c.Status(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never started: %s", cur.State)
		}
		time.Sleep(time.Millisecond)
	}
	if err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	fin, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", fin.State)
	}
	// The result of a canceled job is gone.
	var out any
	if err := c.Result(ctx, st.ID, &out); err == nil || !strings.Contains(err.Error(), "410") {
		t.Fatalf("want HTTP 410 for canceled result, got %v", err)
	}
}

// TestThreadsKeyRejected: the simulator has one engine, so a job spec
// no longer has a threads key, and strict decoding rejects a spec that
// still sends one with an error naming the key.
func TestThreadsKeyRejected(t *testing.T) {
	_, ts, _ := newHTTPServer(t, Options{Workers: 1})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"policy":"pom","workload":"bwaves","threads":8}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e apiError
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, `"threads"`) {
		t.Fatalf("threads key: %d %q, want 400 naming the key", resp.StatusCode, e.Error)
	}
}

func TestHTTPErrors(t *testing.T) {
	_, ts, c := newHTTPServer(t, Options{Workers: 1})
	ctx := context.Background()

	// Malformed JSON → 400.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: %d, want 400", resp.StatusCode)
	}

	// Unknown fields → 400 (catches typo'd specs instead of silently
	// running defaults).
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"policy":"pom","workload":"bwaves","instrs":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: %d, want 400", resp.StatusCode)
	}

	// Invalid spec → 400.
	if _, err := c.Submit(ctx, JobSpec{Policy: "nope", Workload: "bwaves"}); err == nil {
		t.Fatal("bad policy should fail")
	}

	// Unknown job → 404 on status, result and cancel.
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/result"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: %d, want 404", path, resp.StatusCode)
		}
	}
	if err := c.Cancel(ctx, "nope"); err == nil {
		t.Fatal("cancel of unknown job should fail")
	}

	// Result of a still-queued/running job → 409.
	st, err := c.Submit(ctx, slowSpec(42))
	if err != nil {
		t.Fatal(err)
	}
	var out any
	if err := c.Result(ctx, st.ID, &out); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("want 409 for unfinished result, got %v", err)
	}
	if err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
}

func TestHTTPListAndMetrics(t *testing.T) {
	_, ts, c := newHTTPServer(t, Options{Workers: 2})
	ctx := context.Background()
	st, err := c.Submit(ctx, fastSpec(43))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), st.ID) {
		t.Fatalf("job list missing %s: %s", st.ID, buf[:n])
	}

	mresp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	n, _ = mresp.Body.Read(buf)
	body := string(buf[:n])
	for _, key := range []string{"jobs_submitted", "jobs_done", "jobs_stored", "jobs_expired", "cache_hit_rate", "queue_wait_ms", "sim_cycles_total"} {
		if !strings.Contains(body, key) {
			t.Errorf("/debug/vars missing %s:\n%s", key, body)
		}
	}

	// The queue-full path surfaces as 503 + Retry-After. Disable the
	// client's backoff: this test wants the raw first response.
	s2, _, c2 := newHTTPServer(t, Options{Workers: 1, QueueDepth: 1})
	c2.Retry.Disabled = true
	if _, err := c2.Submit(ctx, slowSpec(44)); err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to own the first job, so the single queue
	// slot is provably free for the second.
	deadline := time.Now().Add(10 * time.Second)
	for s2.Metrics().JobsRunning.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := c2.Submit(ctx, slowSpec(45)); err != nil { // queue slot
		t.Fatal(err)
	}
	_, err = c2.Submit(ctx, slowSpec(46))
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("want 503 when queue full, got %v", err)
	}
	// Drain quickly for cleanup.
	for _, j := range s2.Jobs() {
		_, _ = s2.Cancel(j.ID)
	}
}
