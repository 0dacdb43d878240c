package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

// tinySpec is a sim job that ends within a few milliseconds.
func tinySpec(seed uint64) JobSpec {
	s := fastSpec(seed)
	s.Instructions = 200
	return s
}

// TestCountersCountBeforeDone: whatever ends a job bumps its jobs_*
// counter, and drops the running gauge, before the job's Done closes,
// so a caller that wakes on Done and reads the counters sees the job
// counted. The waiter spins on Done rather than parking, so it wakes
// while the worker is still inside runJob.
func TestCountersCountBeforeDone(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	m := s.Metrics()
	const n = 200
	for i := int64(1); i <= n; i++ {
		j, err := s.Submit(tinySpec(uint64(1000 + i)))
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(30 * time.Second)
	spin:
		for {
			select {
			case <-j.Done():
				break spin
			default:
				if time.Now().After(deadline) {
					t.Fatalf("job %d not terminal after 30s", i)
				}
			}
		}
		done, running := m.JobsDone.Value(), m.JobsRunning.Value()
		if st := j.State(); st != StateDone {
			t.Fatalf("job %d: state %s", i, st)
		}
		if done != i || running != 0 {
			t.Fatalf("after job %d ended: jobs_done = %d, jobs_running = %d; want %d, 0", i, done, running, i)
		}
	}
}

// TestCancelCountsBeforeDone: canceling a queued job counts it in
// jobs_canceled at once, not when a worker later dequeues it.
func TestCancelCountsBeforeDone(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	busy, err := s.Submit(slowSpec(71))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(slowSpec(72))
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := s.Cancel(queued.ID); err != nil || !ok {
		t.Fatalf("cancel queued job: %v %v", ok, err)
	}
	<-queued.Done()
	if n := s.Metrics().JobsCanceled.Value(); n != 1 {
		t.Fatalf("jobs_canceled = %d right after a queued job was canceled, want 1", n)
	}
	if _, err := s.Cancel(busy.ID); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, busy, 30*time.Second)
	if n := s.Metrics().JobsCanceled.Value(); n != 2 {
		t.Fatalf("jobs_canceled = %d after the running job was canceled too, want 2", n)
	}
}

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestCacheHitSharesResult: a cache hit shares the cache's result
// string rather than copying it, so the live heap a retained hit adds
// (its job and store entry) is well under the result's own length.
func TestCacheHitSharesResult(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	spec := fastSpec(73)
	first, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, first, 30*time.Second); st.State != StateDone {
		t.Fatalf("state %s (err %q)", st.State, st.Error)
	}
	res, err := first.Result()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(spec); err != nil { // warm the hit path
		t.Fatal(err)
	}
	const hits = 2000
	before := liveHeap()
	for i := 0; i < hits; i++ {
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !j.Status().Cached {
			t.Fatal("resubmission missed the cache")
		}
	}
	after := liveHeap()
	if stored, _ := s.store.Stats(); stored != hits+2 {
		t.Fatalf("store holds %d jobs, want all %d (every one ended inside the grace)", stored, hits+2)
	}
	perHit := (int64(after) - int64(before)) / hits
	t.Logf("live heap per retained hit: %d B; result: %d B", perHit, len(res))
	if perHit >= int64(len(res))/2 {
		t.Fatalf("each hit keeps %d B live, want under half the %d B result: a hit must not copy its result", perHit, len(res))
	}
}

// TestStoreRetention drives 100k cache hits through a Store on a
// synthetic clock, one millisecond apart, among them jobs that never
// end and a job that runs for most of the time. The store must never
// hold more than keepEnded ended jobs beyond those that ended within
// maxStatusWait, and must never drop an unfinished job or one inside
// the grace. Once more than keepEnded jobs are inside the grace, every
// ended job outside it is gone: the long-running job does not hold
// back the jobs behind it.
func TestStoreRetention(t *testing.T) {
	st := NewStore()
	spec, err := fastSpec(74).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	hash := spec.Hash()
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	const total = 100_000
	type rec struct {
		id    string
		ended time.Time // zero: never ends
	}
	var (
		recs    []rec
		open    []*Job      // jobs that have not ended
		endedAt []time.Time // in end order
		graceAt int         // endedAt[graceAt:] ended within maxStatusWait
		long    *Job
	)
	for i := 0; i < total; i++ {
		now := t0.Add(time.Duration(i) * time.Millisecond)
		if i == 90_000 {
			long.finish(StateDone, "{}", nil, now, nil)
			endedAt = append(endedAt, now)
			recs[0].ended = now
		}
		j := st.NewJob(spec, hash, now)
		switch {
		case i == 0:
			long = j
			if !j.tryStart(now, func() {}) {
				t.Fatal("long job did not start")
			}
			recs = append(recs, rec{id: j.ID})
		case i%5000 == 1:
			open = append(open, j)
			recs = append(recs, rec{id: j.ID})
		default:
			j.markCached("{}", now)
			endedAt = append(endedAt, now)
			recs = append(recs, rec{id: j.ID, ended: now})
		}

		// Ended jobs the store may hold: keepEnded plus those inside
		// the grace.
		for graceAt < len(endedAt) && now.Sub(endedAt[graceAt]) > maxStatusWait {
			graceAt++
		}
		inGrace := len(endedAt) - graceAt
		unfinished := len(open)
		if long.State() != StateDone {
			unfinished++
		}
		stored, expired := st.Stats()
		if stored-unfinished > keepEnded+inGrace {
			t.Fatalf("at %d: store holds %d ended jobs, want at most %d + %d in the grace",
				i, stored-unfinished, keepEnded, inGrace)
		}
		if inGrace > keepEnded+1 && expired != int64(graceAt) {
			t.Fatalf("at %d: %d jobs expired, want all %d that ended before the grace", i, expired, graceAt)
		}
		if i%5000 != 4999 {
			continue
		}
		for _, r := range recs {
			_, ok := st.Get(r.id)
			switch {
			case r.ended.IsZero() && !ok:
				t.Fatalf("at %d: unfinished job %s was dropped", i, r.id)
			case !r.ended.IsZero() && now.Sub(r.ended) <= maxStatusWait && !ok:
				t.Fatalf("at %d: job %s ended %s ago, inside the grace, and was dropped", i, r.id, now.Sub(r.ended))
			}
		}
		if len(st.Snapshot()) != stored {
			t.Fatalf("at %d: snapshot lists %d jobs, store holds %d", i, len(st.Snapshot()), stored)
		}
	}
	if _, expired := st.Stats(); expired == 0 {
		t.Fatal("nothing expired over 100 s of hits")
	}
}

// TestExpiredJobAnswers404: once the store has dropped an ended job,
// its status and result answer 404 "unknown or expired job", and its
// spec, resubmitted, is still a cache hit: results outlive jobs.
func TestExpiredJobAnswers404(t *testing.T) {
	s, ts, c := newHTTPServer(t, Options{Workers: 1})
	spec := fastSpec(75)
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j, 30*time.Second); st.State != StateDone {
		t.Fatalf("state %s (err %q)", st.State, st.Error)
	}
	// keepEnded+1 jobs that end past the grace push j out.
	later := time.Now().Add(2 * maxStatusWait)
	other, err := fastSpec(76).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= keepEnded; i++ {
		s.store.NewJob(other, other.Hash(), later).markCached("{}", later)
	}
	s.store.NewJob(other, other.Hash(), later) // expiry runs on submission
	if _, ok := s.Job(j.ID); ok {
		t.Fatal("the store still holds the old job")
	}
	for _, path := range []string{"/v1/jobs/" + j.ID, "/v1/jobs/" + j.ID + "/result"} {
		code, body := get(t, ts.URL+path)
		if code != http.StatusNotFound || !strings.Contains(body, "unknown or expired job") {
			t.Errorf("GET %s: %d %s, want 404 unknown or expired job", path, code, body)
		}
	}
	st, err := c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || !st.Cached {
		t.Fatalf("resubmitted expired job: state %s cached %v, want done from cache", st.State, st.Cached)
	}
	vars := s.Metrics().Vars()
	if got := vars.Get("jobs_expired").String(); got != "1" {
		t.Errorf("jobs_expired = %s, want 1", got)
	}
	if got, want := vars.Get("jobs_stored").String(), "1027"; got != want {
		t.Errorf("jobs_stored = %s, want %s", got, want)
	}
}

// get issues a GET and returns the status code and body.
func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestRevertedHandOffKeepsQueuedEntry: a hand-off reverted while the
// job's first queue entry is still waiting (the idle peer refused it
// before a worker reached it) must not queue the job a second time.
// The job keeps its one slot, the queue's other slots stay free for
// fresh submissions, and the job runs once. Only the dead-node sweep
// counts jobs_reenqueued, so a refused hand-off leaves it at 0.
func TestRevertedHandOffKeepsQueuedEntry(t *testing.T) {
	for _, depth := range []int{1, 2} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			s := newTestServer(t, Options{Workers: 1, QueueDepth: depth})
			m := s.Metrics()
			blocker, err := s.Submit(slowSpec(81)) // occupies the only worker
			if err != nil {
				t.Fatal(err)
			}
			for blocker.State() != StateRunning {
				time.Sleep(time.Millisecond)
			}
			j, err := s.Submit(fastSpec(82))
			if err != nil {
				t.Fatal(err)
			}
			if !j.markRemote("node-x", "http://x", "", time.Now()) {
				t.Fatal("could not hand off the queued job")
			}
			if !s.requeue(j, "node-x") {
				t.Fatal("could not revert the hand-off")
			}
			if st := j.Status(); st.State != StateQueued {
				t.Fatalf("reverted job is %s (err %q), want queued", st.State, st.Error)
			}
			if q := m.JobsQueued.Value(); q != 1 {
				t.Errorf("jobs_queued = %d after the revert, want 1", q)
			}
			// Every other slot is still free while the worker is busy.
			var fresh []*Job
			for k := 1; k < depth; k++ {
				f, err := s.Submit(fastSpec(uint64(83 + k)))
				if err != nil {
					t.Fatalf("fresh submission %d rejected with %d of %d slots in use: %v", k, k, depth, err)
				}
				fresh = append(fresh, f)
			}
			if ok, _ := s.Cancel(blocker.ID); !ok {
				t.Fatal("cancel running blocker failed")
			}
			if st := waitTerminal(t, j, 30*time.Second); st.State != StateDone {
				t.Fatalf("reverted job ended %s (err %q), want done", st.State, st.Error)
			}
			f, err := s.Submit(fastSpec(90))
			if err != nil {
				t.Fatalf("fresh submission after the reverted job ran: %v", err)
			}
			for _, f := range append(fresh, f) {
				if st := waitTerminal(t, f, 30*time.Second); st.State != StateDone {
					t.Fatalf("fresh job ended %s (err %q), want done", st.State, st.Error)
				}
			}
			if done, want := m.JobsDone.Value(), int64(depth+1); done != want {
				t.Errorf("jobs_done = %d, want %d (the reverted job once, %d fresh)", done, want, depth)
			}
			if q, r := m.JobsQueued.Value(), m.JobsReenqueued.Value(); q != 0 || r != 0 {
				t.Errorf("jobs_queued = %d, jobs_reenqueued = %d; want 0, 0", q, r)
			}
		})
	}
}
