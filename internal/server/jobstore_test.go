package server

import (
	"sync"
	"testing"
	"time"
)

// TestJobCancelRaces races Cancel against every competing lifecycle
// transition — local start, forward or hand-off, remote completion —
// under the race detector. The invariants are the ones the cluster relies on
// for exactly-once execution: at most one "executor" transition wins,
// the done channel closes exactly once (a double close panics), and
// the job lands in a coherent terminal-or-queued state.
func TestJobCancelRaces(t *testing.T) {
	now := time.Now()
	cases := []struct {
		name string
		// prep runs before the race (e.g. move the job out of queued).
		prep func(j *Job)
		// rival runs concurrently with Cancel; returns whether it "won"
		// (took ownership of / completed the job).
		rival func(j *Job) bool
		// allowedStates the job may end in after both sides return.
		allowed map[JobState]bool
	}{
		{
			name:    "queued: worker start vs cancel",
			rival:   func(j *Job) bool { return j.tryStart(now, func() {}) },
			allowed: map[JobState]bool{StateRunning: true, StateCanceled: true},
		},
		{
			name:    "queued: forward vs cancel",
			rival:   func(j *Job) bool { return j.markRemote("owner", "http://x", "rid", now) },
			allowed: map[JobState]bool{StateRemote: true, StateCanceled: true},
		},
		{
			name:    "running: completion vs cancel",
			prep:    func(j *Job) { j.tryStart(now, func() {}) },
			rival:   func(j *Job) bool { return j.finish(StateDone, "{}", nil, now, nil) },
			allowed: map[JobState]bool{StateDone: true, StateCanceled: true},
		},
		{
			name:    "remote: peer completion vs cancel",
			prep:    func(j *Job) { j.markRemote("owner", "http://x", "rid", now) },
			rival:   func(j *Job) bool { return j.finishFromPeer(StateDone, "{}", "", true, now, nil) },
			allowed: map[JobState]bool{StateDone: true, StateCanceled: true},
		},
		{
			name: "remote: dead-node revert vs cancel",
			prep: func(j *Job) { j.markRemote("owner", "http://x", "rid", now) },
			// revert then (sequentially) cancel can both succeed; the job
			// must never end half-reverted.
			rival:   func(j *Job) bool { reverted, _ := j.revertToQueued("owner"); return reverted },
			allowed: map[JobState]bool{StateQueued: true, StateCanceled: true},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for iter := 0; iter < 200; iter++ {
				j := newJob("j1", fastSpec(uint64(iter)), fastSpec(uint64(iter)).Hash(), now)
				if tc.prep != nil {
					tc.prep(j)
				}
				var rivalWon, cancelWon bool
				var wg sync.WaitGroup
				wg.Add(2)
				go func() { defer wg.Done(); rivalWon = tc.rival(j) }()
				go func() { defer wg.Done(); cancelWon = j.Cancel(now) }()
				wg.Wait()

				st := j.State()
				if !tc.allowed[st] {
					t.Fatalf("iter %d: state %s not in allowed set (rival=%v cancel=%v)",
						iter, st, rivalWon, cancelWon)
				}
				// A canceled-while-waiting job must reject both executors:
				// once terminal, neither start nor hand-off may succeed.
				if st == StateCanceled && (j.tryStart(now, func() {}) || j.markRemote("late", "", "", now)) {
					t.Fatalf("iter %d: terminal job accepted a late executor", iter)
				}
			}
		})
	}
}

// TestJobStartClaimExclusive races the local worker against a hand-off
// to an idle peer for the same queued job: exactly one may win.
func TestJobStartClaimExclusive(t *testing.T) {
	now := time.Now()
	for iter := 0; iter < 500; iter++ {
		j := newJob("j1", fastSpec(1), fastSpec(1).Hash(), now)
		var started, handed bool
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); started = j.tryStart(now, func() {}) }()
		go func() { defer wg.Done(); handed = j.markRemote("thief", "http://x", "", now) }()
		wg.Wait()
		if started == handed {
			t.Fatalf("iter %d: started=%v handed=%v, want exactly one winner",
				iter, started, handed)
		}
	}
}

// TestStoreIDPrefix pins the cluster-unique job ID scheme: every store
// counts from 1, so clustered stores must namespace their IDs.
func TestStoreIDPrefix(t *testing.T) {
	a, b := NewStore(), NewStore()
	a.SetIDPrefix("node-a-")
	b.SetIDPrefix("node-b-")
	now := time.Now()
	ja, jb := a.NewJob(fastSpec(1), fastSpec(1).Hash(), now), b.NewJob(fastSpec(1), fastSpec(1).Hash(), now)
	if ja.ID == jb.ID {
		t.Fatalf("job IDs collide across stores: %s", ja.ID)
	}
	if ja.ID != "node-a-j00000001" {
		t.Fatalf("ID = %q, want node-a-j00000001", ja.ID)
	}
}

// TestJobRevertClearsExecutionState verifies a dead-node revert
// produces a clean re-runnable job.
func TestJobRevertClearsExecutionState(t *testing.T) {
	now := time.Now()
	j := newJob("j1", fastSpec(1), fastSpec(1).Hash(), now)
	if !j.markRemote("owner", "http://x", "rid", now) {
		t.Fatal("markRemote failed")
	}
	j.setProgress(Progress{Epochs: 7})
	// A mirror never had a pool entry, so the caller must submit it.
	if reverted, _ := j.revertToQueued("elsewhere"); reverted {
		t.Fatal("revertToQueued reverted a mirror of another node")
	}
	if reverted, submit := j.revertToQueued("owner"); !reverted || !submit {
		t.Fatalf("revertToQueued = %v, %v; want true, true", reverted, submit)
	}
	st := j.Status()
	if st.State != StateQueued || st.Node != "" || st.RemoteID != "" ||
		st.StartedAt != nil || st.Progress.Epochs != 0 {
		t.Fatalf("revert left residue: %+v", st)
	}
	// And the job is startable again, exactly once.
	if !j.tryStart(now, func() {}) {
		t.Fatal("reverted job must be startable")
	}
}
