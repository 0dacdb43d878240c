package server

import (
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"chameleon/internal/dse"
	"chameleon/internal/experiments"
)

// getStatus issues one raw status read and decodes a 200 answer.
func getStatus(t *testing.T, url string) (int, JobStatus) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, st
}

func TestStatusWaitRejectsBadDuration(t *testing.T) {
	s, ts, _ := newHTTPServer(t, Options{Workers: 1})
	j, err := s.Submit(fastSpec(60))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"-1s", "abc"} {
		if code, _ := getStatus(t, ts.URL+"/v1/jobs/"+j.ID+"?wait="+v); code != http.StatusBadRequest {
			t.Errorf("wait=%s: HTTP %d, want 400", v, code)
		}
	}
}

// TestStatusWaitEndedJobAnswersAtOnce: a held read on a job that has
// already ended (run, or served from the cache) does not wait.
func TestStatusWaitEndedJobAnswersAtOnce(t *testing.T) {
	s, ts, _ := newHTTPServer(t, Options{Workers: 1})
	ran, err := s.Submit(fastSpec(61))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, ran, 30*time.Second)
	cached, err := s.Submit(fastSpec(61))
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []*Job{ran, cached} {
		start := time.Now()
		code, st := getStatus(t, ts.URL+"/v1/jobs/"+j.ID+"?wait=1m")
		if el := time.Since(start); el > 2*time.Second {
			t.Errorf("%s: held read took %s on an ended job", j.ID, el)
		}
		if code != http.StatusOK || st.State != StateDone {
			t.Errorf("%s: HTTP %d state %s, want 200 done", j.ID, code, st.State)
		}
	}
}

// TestStatusWaitReturnsOnFinish: a held read on a running job answers
// within milliseconds of the job ending, long before its wait is up.
func TestStatusWaitReturnsOnFinish(t *testing.T) {
	s, ts, _ := newHTTPServer(t, Options{Workers: 1})
	norm, err := fastSpec(62).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	j := s.store.NewJob(norm, norm.Hash(), time.Now())
	if !j.tryStart(time.Now(), func() {}) {
		t.Fatal("job did not start")
	}
	type answer struct {
		code int
		st   JobStatus
		at   time.Time
	}
	got := make(chan answer, 1)
	go func() {
		code, st := getStatus(t, ts.URL+"/v1/jobs/"+j.ID+"?wait=30s")
		got <- answer{code, st, time.Now()}
	}()
	time.Sleep(100 * time.Millisecond) // let the read reach the handler
	finished := time.Now()
	j.finish(StateDone, `{}`, nil, finished, nil)
	select {
	case a := <-got:
		lag := a.at.Sub(finished)
		t.Logf("held read answered %s after the job ended", lag)
		if a.code != http.StatusOK || a.st.State != StateDone {
			t.Fatalf("HTTP %d state %s, want 200 done", a.code, a.st.State)
		}
		if lag > 250*time.Millisecond {
			t.Fatalf("held read answered %s after the job ended", lag)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("held read did not return after the job ended")
	}
}

// TestStatusWaitReleasedByShutdown: Shutdown releases a held read on
// an unfinished job with a 503, so the HTTP server's own shutdown is
// not kept waiting.
func TestStatusWaitReleasedByShutdown(t *testing.T) {
	s, ts, _ := newHTTPServer(t, Options{Workers: 1})
	norm, err := fastSpec(63).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	j := s.store.NewJob(norm, norm.Hash(), time.Now()) // never reaches a worker
	got := make(chan int, 1)
	go func() {
		code, _ := getStatus(t, ts.URL+"/v1/jobs/"+j.ID+"?wait=1m")
		got <- code
	}()
	time.Sleep(100 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-got:
		if code != http.StatusServiceUnavailable {
			t.Fatalf("released read: HTTP %d, want 503", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not release the held read")
	}
	// A new held read on the draining server does not block either.
	if code, _ := getStatus(t, ts.URL+"/v1/jobs/"+j.ID+"?wait=1m"); code != http.StatusServiceUnavailable {
		t.Fatalf("read while draining: HTTP %d, want 503", code)
	}
}

// followers counts the goroutines of mirror followers: each follower
// and its cancel hook.
func followers() int {
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	return strings.Count(stacks, "(*Server).followRemote(") +
		strings.Count(stacks, "(*Server).followRemote.func1(")
}

// waitFollowers waits for the follower count to reach want.
func waitFollowers(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for followers() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%d follower goroutines, want %d", followers(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMirrorFollowerStops: a forwarded job's mirror follows its owner
// on one goroutine, which stops when the mirror is canceled and when
// the server shuts down. Canceling the mirror through Server.Cancel
// cancels the owner's copy as well.
func TestMirrorFollowerStops(t *testing.T) {
	clock := newFakeClock()
	nodes := newServerCluster(t, 3, clock, nil)
	converge(t, nodes)
	a, b := nodes[0], nodes[1]
	remoteSpec := func(seed uint64) JobSpec {
		return findSpec(t, b.cl, func(s uint64) JobSpec { return slowSpec(seed*4096 + s) }, func(owners []string) bool {
			return owners[0] == a.id && owners[1] != b.id
		})
	}
	waitFollowers(t, 0)

	j, err := b.s.Submit(remoteSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if j.State() != StateRemote {
		t.Fatalf("state = %s, want remote", j.State())
	}
	// The follower goroutine and its cancel hook.
	waitFollowers(t, 2)
	var owned *Job
	for _, st := range a.s.Jobs() {
		if st.Hash == j.Hash {
			owned, _ = a.s.Job(st.ID)
		}
	}
	if owned == nil {
		t.Fatalf("%s holds no copy of the forwarded job", a.id)
	}
	if _, err := b.s.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	waitFollowers(t, 0)
	if st := waitTerminal(t, owned, 5*time.Second); st.State != StateCanceled {
		t.Fatalf("owner's copy = %s, want canceled", st.State)
	}

	if _, err := b.s.Submit(remoteSpec(2)); err != nil {
		t.Fatal(err)
	}
	waitFollowers(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = b.s.Shutdown(ctx)
	waitFollowers(t, 0)
}

// remoteJobOn finds node nd's job with the given content hash.
func remoteJobOn(t *testing.T, nd *clusterNode, hash string) JobStatus {
	t.Helper()
	for _, st := range nd.s.Jobs() {
		if st.Hash == hash && st.FinishedAt != nil {
			return st
		}
	}
	t.Fatalf("%s holds no finished job with hash %.12s", nd.id, hash)
	return JobStatus{}
}

// TestClusterSeesRemoteEndPromptly measures the lag from a job ending
// on its owner to the node waiting on it seeing the end: a forwarded
// job's mirror, and a sweep cell run on its ring owner. Each wait is
// one held read (half the 2 s peer client timeout), so the end is seen
// as it happens rather than at the next poll.
func TestClusterSeesRemoteEndPromptly(t *testing.T) {
	const maxLag = 150 * time.Millisecond
	clock := newFakeClock()
	nodes := newServerCluster(t, 3, clock, nil)
	converge(t, nodes)
	byID := map[string]*clusterNode{}
	for _, nd := range nodes {
		byID[nd.id] = nd
	}
	a, b := nodes[0], nodes[1]

	// Mirror: b forwards to a a job long enough that the end arrives
	// while b's follower holds a read open.
	spec := findSpec(t, b.cl, func(seed uint64) JobSpec {
		s := fastSpec(seed)
		s.Instructions = 100_000
		return s
	}, func(owners []string) bool { return owners[0] == a.id && owners[1] != b.id })
	j, err := b.s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j, 30*time.Second)
	if st.State != StateDone {
		t.Fatalf("mirror = %s (err %q), want done", st.State, st.Error)
	}
	mirrorLag := st.FinishedAt.Sub(*remoteJobOn(t, a, j.Hash).FinishedAt)
	t.Logf("mirror saw the owner's end after %s", mirrorLag)
	if mirrorLag > maxLag {
		t.Errorf("mirror lag %s, want under %s", mirrorLag, maxLag)
	}

	// Sweep cell: a one-cell sweep runs on its own hash owner, and its
	// cell belongs to the third node, so the cell runs remotely.
	var sweep JobSpec
	var runner, cellOwner *clusterNode
	var cellHash string
	for seed := uint64(1); runner == nil; seed++ {
		if seed > 4096 {
			t.Fatal("no seed places the cell off the sweep's node")
		}
		sweep = JobSpec{Kind: KindDSE, Scale: 1024, Instructions: 100_000, Warmup: 1,
			DSE: &dse.Spec{Policies: []string{"chameleon-opt"}, Workloads: []string{"bwaves"}, Seeds: []uint64{seed}}}
		norm, err := sweep.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		cells, err := norm.DSE.Expand()
		if err != nil {
			t.Fatal(err)
		}
		cs, err := experiments.SweepCell(*norm.DSE, cells[0], norm.Instructions, norm.Warmup)
		if err != nil {
			t.Fatal(err)
		}
		host := a.cl.Ring().Owners(norm.Hash(), replication)[0]
		owners := a.cl.Ring().Owners(cs.Hash(), replication)
		if owners[0] != host && owners[1] != host {
			runner, cellOwner, cellHash = byID[host], byID[owners[0]], cs.Hash()
		}
	}
	sj, err := runner.s.Submit(sweep)
	if err != nil {
		t.Fatal(err)
	}
	st = waitTerminal(t, sj, 30*time.Second)
	if st.State != StateDone {
		t.Fatalf("sweep = %s (err %q), want done", st.State, st.Error)
	}
	if got := runner.s.Metrics().DSECellsRemote.Value(); got != 1 {
		t.Fatalf("%s ran %d cells remotely, want 1", runner.id, got)
	}
	cellLag := st.FinishedAt.Sub(*remoteJobOn(t, cellOwner, cellHash).FinishedAt)
	t.Logf("sweep saw its remote cell end after %s (sweep ended)", cellLag)
	if cellLag > maxLag {
		t.Errorf("sweep cell lag %s, want under %s", cellLag, maxLag)
	}
}
