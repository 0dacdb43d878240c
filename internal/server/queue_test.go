package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testJob builds an unregistered job for pool-level tests.
func testJob(t *testing.T, seed uint64) *Job {
	t.Helper()
	spec, err := JobSpec{Policy: "pom", Workload: "bwaves", Seed: seed}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	return newJob("t1", spec, spec.Hash(), time.Now())
}

func TestPoolRunsEverythingWithFewWorkers(t *testing.T) {
	var ran atomic.Int64
	var mu sync.Mutex
	seen := map[string]bool{}
	p := newPool(2, 64, func(j *Job) {
		ran.Add(1)
		mu.Lock()
		seen[j.ID] = true
		mu.Unlock()
	})
	const n = 32 // far more jobs than workers
	for i := 0; i < n; i++ {
		spec, _ := JobSpec{Policy: "pom", Workload: "bwaves", Seed: uint64(i + 1)}.Normalize()
		j := newJob(fmt.Sprintf("job-%d", i), spec, spec.Hash(), time.Now())
		if err := p.Submit(j); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	p.Close()
	p.Wait()
	if ran.Load() != n {
		t.Fatalf("ran %d jobs, want %d", ran.Load(), n)
	}
	if len(seen) != n {
		t.Fatalf("saw %d distinct jobs, want %d", len(seen), n)
	}
}

func TestPoolQueueFull(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	p := newPool(1, 1, func(*Job) {
		started <- struct{}{}
		<-block
	})
	if err := p.Submit(testJob(t, 1)); err != nil { // taken by the worker
		t.Fatal(err)
	}
	<-started
	if err := p.Submit(testJob(t, 2)); err != nil { // fills the queue slot
		t.Fatal(err)
	}
	if err := p.Submit(testJob(t, 3)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	close(block)
	p.Close()
	p.Wait()
}

func TestPoolRejectsAfterClose(t *testing.T) {
	p := newPool(1, 4, func(*Job) {})
	p.Close()
	if err := p.Submit(testJob(t, 1)); !errors.Is(err, ErrDraining) {
		t.Fatalf("want ErrDraining, got %v", err)
	}
	p.Wait()
}

func TestPoolFIFOOrder(t *testing.T) {
	var mu sync.Mutex
	var order []string
	release := make(chan struct{})
	p := newPool(1, 16, func(j *Job) {
		<-release
		mu.Lock()
		order = append(order, j.ID)
		mu.Unlock()
	})
	ids := []string{"first", "second", "third", "fourth"}
	for _, id := range ids {
		j := testJob(t, 9)
		j.ID = id
		if err := p.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	p.Close()
	p.Wait()
	for i, id := range ids {
		if order[i] != id {
			t.Fatalf("order = %v, want %v", order, ids)
		}
	}
}
