package sim

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"chameleon/internal/trace"
)

// This file is the parallel execution engine: workers run cores ahead
// through their private state and park on shared-phase events, which a
// single sequencer commits in the scheduler's global (key, id) order.
//
// # Step decomposition
//
// The engine uses the package's one step decomposition (run.go): a
// worker runs each step's core-local prefix with System.stepPrivate and
// parks the stepEvent it returns; the sequencer commits parked events
// with System.commit, the same code the sequential engine's run-ahead
// loop runs. What this file adds is concurrency around that core: the
// per-core status and published clocks, the sequencer's commit-safety
// wait, side-channel rings for trace capture and CLOCK reference bits,
// and the eviction fence.
//
// # Determinism
//
// The sequential engine commits events in (pre-step time, core id)
// order. Local prefixes commute, so only the shared suffixes' relative
// order matters; the sequencer commits parked events by exactly that
// (key, id) order, and it commits an event only once no running core
// could still produce an earlier one: a running core j's published
// clock pub[j] lower-bounds the key of every event j may still emit
// (clocks never decrease), so event (K, i) waits while some running j
// has pub[j] < K, or pub[j] == K with j < i. Hence shared state sees
// the sequential interleaving bit for bit, per-core state evolves in
// program order on a single worker, and the OS access counters are
// commutative sums merged at the end of the pass — results are
// DeepEqual-identical to the sequential engine at any thread count
// (TestParallelEquivalence pins this for every registered policy).
//
// # Commit-ordered side channels (timeline, capture, reference bits)
//
// The commit-safety rule above gives a stronger property than shared
// -state ordering alone: when event (K, i) commits, every step with a
// smaller (key, id) has fully executed. Three per-step side effects
// exploit it to run under parallelism without breaking bit-identity:
//
//   - Timeline sampling. Only the sequencer samples. Every commit
//     re-runs the sequential engine's epoch check at the committing
//     step's position, and a fully-local step that would otherwise
//     retire on its worker parks a no-op evEpoch event whenever its
//     post-gap clock reaches the worker's (atomically loaded) next
//     -epoch bound. That load can only lag the true bound — the
//     sequencer alone advances it, and only at commits that precede the
//     step in (key, id) order — so skipping the park is always sound
//     and parking is at worst spurious. Samples and Options.Progress
//     callbacks therefore fire in exact step order on one goroutine.
//
//   - Trace capture. Each worker tees the references it consumes into
//     a per-core single-producer/single-consumer ring stamped with the
//     step's commit key; before each commit the sequencer drains all
//     rings in merged (key, id) order up to the committing event. The
//     sink sees the sequential engine's exact Emit sequence, which is
//     what makes threaded re-capture byte-identical (the CMTR writer's
//     block layout depends only on global Emit order).
//
//   - CLOCK reference bits (evictable mode, below). Run-ahead ref-bit
//     writes would reach the page table out of order and silently steer
//     CLOCK victim selection away from the sequential run, so in
//     evictable mode workers translate with TranslateMappedQuiet, log
//     the touched frame in a second per-core ring, and the sequencer
//     replays the bits in commit order through os.MarkReferenced.
//
// A core whose ring fills parks a no-op evSync event; committing it
// (like any commit) drains the rings, then the core retries the step.
//
// # Run-ahead translation safety (eviction-safe mode)
//
// Workers translate mapped pages lock-free while the sequencer handles
// faults. When System.translationsStable proves no eviction can ever
// occur the engine runs in stable mode and the fast path is exactly
// PR-era run-ahead. Otherwise it runs in evictable mode, built on the
// osmodel page-table generation counter (seqlock style — it advances on
// every eviction, the only cross-process page-table mutation):
//
//   - Workers validate the generation around each lock-free translation
//     and park the step as a fault on any mismatch, handing the
//     translation to the sequencer to replay authoritatively in order.
//
//   - When a committed fault must evict, the sequencer first fences the
//     workers: it raises e.fence, waits until every worker is parked at
//     the fence, asleep, or exited (no step mid-flight), then runs the
//     eviction. Ref bits were replayed in commit order, so CLOCK picks
//     the bit-identical victim.
//
//   - The undrained touch-ring entries are precisely the steps that
//     sequentially follow the eviction but already translated against
//     the pre-eviction table. If any of them resolved to the victim
//     frame, their private-cache state is stale and cannot be rolled
//     back: the pass aborts with ErrRunAheadCollision and RunContext
//     transparently re-runs on a fresh sequential System (possible
//     whenever no side channel has already escaped — see RunContext).
//     Any other undrained translation is still valid — an eviction
//     invalidates exactly one (process, vpage, frame) binding — so the
//     fence drops and run-ahead resumes.
//
// # Liveness
//
// A worker sleeps only when every core it owns is parked or done, and
// parking/finishing always signals the sequencer. The sequencer waits
// only when (a) nothing is parked — then some core is running and will
// park, finish, or drain the pass — or (b) a commit is blocked on a
// laggard, with a watermark (wmKey/wmWait) armed so the laggard's next
// publish at or past the key (or its park/finish) wakes the sequencer.
// Workers re-check the watermark after every local step, so a signal
// can be delayed by at most one step, never lost. While the fence is
// up workers entering sleep or the fence signal the sequencer, whose
// quiesce loop re-checks; nothing unparks cores mid-commit, so fenced
// and sleeping workers stay put until the fence drops.

// Core run states (parEngine.status).
const (
	coreRunning int32 = iota // owned by its worker, free to run ahead
	coreParked               // blocked on event[i], awaiting commit
	coreDone                 // instruction budget exhausted this pass
)

// parBatchSteps is how many consecutive steps a worker runs on one core
// before re-picking its minimum-clock core, amortising the scan while
// keeping owned cores loosely in time order.
const parBatchSteps = 32

// parRingCap is the per-core side-channel ring capacity (captured refs,
// frame touches). A full ring parks an evSync event, so capacity only
// bounds run-ahead between drains, not correctness.
const (
	parRingCap  = 1024
	parRingMask = parRingCap - 1
)

// refRing is a single-producer/single-consumer ring of captured
// references stamped with their step's commit key: the owning worker
// pushes during run-ahead, the sequencer drains in commit order. head
// and tail are free-running counters (masked on access); the atomic
// tail store publishes entries, the atomic head store frees slots.
type refRing struct {
	key  [parRingCap]uint64
	ref  [parRingCap]trace.Ref
	head atomic.Uint64 // consumed by the sequencer
	tail atomic.Uint64 // published by the worker
}

func (r *refRing) full() bool { return r.tail.Load()-r.head.Load() >= parRingCap }

func (r *refRing) push(key uint64, ref trace.Ref) {
	t := r.tail.Load()
	r.key[t&parRingMask], r.ref[t&parRingMask] = key, ref
	r.tail.Store(t + 1)
}

// touchRing is the frame-touch analogue of refRing: the CLOCK reference
// bits a worker's quiet translations owe the page table, replayed by
// the sequencer in commit order (evictable mode only).
type touchRing struct {
	key   [parRingCap]uint64
	frame [parRingCap]uint32
	head  atomic.Uint64
	tail  atomic.Uint64
}

func (r *touchRing) full() bool { return r.tail.Load()-r.head.Load() >= parRingCap }

func (r *touchRing) push(key uint64, frame uint32) {
	t := r.tail.Load()
	r.key[t&parRingMask], r.frame[t&parRingMask] = key, frame
	r.tail.Store(t + 1)
}

// ErrRunAheadCollision marks the rare evictable-mode abort: a committed
// fault evicted a frame that a sequentially-later step had already
// translated against during run-ahead. The polluted private-cache state
// cannot be rolled back, so the pass unwinds; RunContext retries the
// whole run on a fresh sequential System when no side channel has
// already escaped, and otherwise surfaces an error wrapping this
// sentinel so callers that own their side channels (e.g. a server that
// can reset a progress gauge) can rebuild and retry sequentially
// themselves.
var ErrRunAheadCollision = errors.New("run-ahead eviction collision")

// parEngine is the parallel execution engine's shared state, built once
// at System construction and reset by each executePar pass.
type parEngine struct {
	s       *System
	threads int

	// capturing tees worker-consumed references through per-core rings
	// to the trace sink; evictable runs the generation-validated,
	// fence-on-evict translation protocol. Both fixed at construction.
	capturing bool
	evictable bool

	mu      sync.Mutex
	seqCond *sync.Cond // sequencer waits here; workers signal it

	workers []*parWorker
	owner   []*parWorker // owner[i] runs core i

	// status[i] is coreParked while cores.ev[i] and cores.key[i] hold
	// core i's parked event.
	status []atomic.Int32 // coreRunning/coreParked/coreDone

	refs    []refRing   // per-core capture rings (capturing only)
	touches []touchRing // per-core ref-bit rings (evictable only)

	// pub[i] lower-bounds the commit key of core i's next parked event:
	// the pre-step clock while a step is in flight (published at the end
	// of the previous step), the core's clock while idle-runnable, and
	// MaxUint64 once done.
	pub []atomic.Uint64

	// Sequencer wait watermark: when wmWait is set, a worker publishing
	// a clock >= wmKey signals seqCond ( >= , not > : a zero-advance
	// step can unblock an id tie at the same key).
	wmKey  atomic.Uint64
	wmWait atomic.Bool

	// fence halts workers between steps while the sequencer commits an
	// evicting fault; fencing mirrors it under mu for the condvar
	// protocol.
	fence   atomic.Bool
	fencing bool

	nDone   int // cores done this pass; guarded by mu
	stopped bool
	stop    atomic.Bool
	err     error // first failure; guarded by mu
}

// parWorker owns the contiguous core range [lo, hi).
type parWorker struct {
	eng     *parEngine
	id      int
	lo, hi  int
	waiting bool // parked in cond.Wait; guarded by eng.mu
	fenced  bool // parked at the eviction fence; guarded by eng.mu
	exited  bool // run() returned this pass; guarded by eng.mu
	cond    *sync.Cond
}

// newParEngine builds the engine for threads workers. Cores are split
// into contiguous chunks so one worker's hot SoA entries stay off its
// neighbours' cache lines. Call it after the trace sink is attached:
// capture and eviction modes latch here.
func newParEngine(s *System, threads int) *parEngine {
	n := s.cores.n()
	e := &parEngine{
		s:         s,
		threads:   threads,
		capturing: s.sinkOn,
		evictable: !s.translationsStable(),
		owner:     make([]*parWorker, n),
		status:    make([]atomic.Int32, n),
		pub:       make([]atomic.Uint64, n),
	}
	if e.capturing {
		e.refs = make([]refRing, n)
	}
	if e.evictable {
		e.touches = make([]touchRing, n)
	}
	e.seqCond = sync.NewCond(&e.mu)
	for id := 0; id < threads; id++ {
		w := &parWorker{eng: e, id: id, lo: id * n / threads, hi: (id + 1) * n / threads}
		w.cond = sync.NewCond(&e.mu)
		e.workers = append(e.workers, w)
		for i := w.lo; i < w.hi; i++ {
			e.owner[i] = w
		}
	}
	return e
}

// executePar runs one pass on the parallel engine: spawn the workers,
// sequence commits on the calling goroutine, join, and fold the
// workers' touch tallies into the OS.
func (s *System) executePar(budget uint64) error {
	s.beginPass(budget)
	e := s.par
	c := &s.cores
	e.err = nil
	e.stopped = false
	e.stop.Store(false)
	e.nDone = 0
	e.wmWait.Store(false)
	e.fence.Store(false)
	e.fencing = false
	for i := 0; i < c.n(); i++ {
		e.status[i].Store(coreRunning)
		e.pub[i].Store(c.time[i])
	}
	var wg sync.WaitGroup
	for _, w := range e.workers {
		w.exited = false
		w.fenced = false
		wg.Add(1)
		go func(w *parWorker) {
			defer wg.Done()
			w.run()
			e.mu.Lock()
			w.exited = true
			e.mu.Unlock()
			e.seqCond.Signal()
		}(w)
	}
	err := e.sequence()
	e.mu.Lock()
	e.stopped = true
	e.stop.Store(true)
	if e.err == nil {
		e.err = err
	}
	for _, w := range e.workers {
		if w.waiting || w.fenced {
			w.waiting = false
			w.cond.Signal()
		}
	}
	e.mu.Unlock()
	wg.Wait()
	s.mergeTouches()
	e.mu.Lock()
	err = e.err
	e.mu.Unlock()
	return err
}

// mergeTouches folds the workers' per-core mapped-translation tallies
// into the OS counters. The counts are commutative sums, so merging
// once per pass reproduces sequential counting exactly.
func (s *System) mergeTouches() {
	c := &s.cores
	for i := range c.touchTotal {
		if c.touchTotal[i] != 0 {
			s.os.AddTouches(c.touchTotal[i], c.touchFast[i])
			c.touchTotal[i], c.touchFast[i] = 0, 0
		}
	}
}

// sequence is the commit loop, run on executePar's goroutine: pick the
// parked event with the smallest (key, id), wait out laggards that
// could still produce an earlier one, drain the side-channel rings up
// to that position, commit it, and unpark the core.
func (e *parEngine) sequence() error {
	s := e.s
	c := &s.cores
	n := c.n()
	commits := 0
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		if e.err != nil {
			return e.err
		}
		if e.nDone == n {
			if e.capturing || e.evictable {
				// Flush the tail: every step has executed, so the rings
				// drain to empty in (key, id) order.
				e.mu.Unlock()
				e.drainLogs(math.MaxUint64, n)
				e.mu.Lock()
			}
			return nil
		}
		// Minimum (key, id) over parked events; ascending id keeps the
		// smallest id on key ties.
		best := -1
		var bestKey uint64
		for i := 0; i < n; i++ {
			if e.status[i].Load() != coreParked {
				continue
			}
			if k := c.key[i]; best < 0 || k < bestKey {
				best, bestKey = i, k
			}
		}
		if best < 0 {
			// Nothing parked: some core is running (nDone < n) and its
			// park/finish will signal. Publishes alone need not wake us.
			e.seqWaitLocked(math.MaxUint64)
			continue
		}
		blocked := false
		for j := 0; j < n; j++ {
			if e.status[j].Load() != coreRunning {
				continue
			}
			if pj := e.pub[j].Load(); pj < bestKey || (pj == bestKey && j < best) {
				blocked = true
				break
			}
		}
		if blocked {
			e.seqWaitLocked(bestKey)
			continue
		}
		e.mu.Unlock()
		if e.capturing || e.evictable {
			// Commit safety makes every step before (bestKey, best) fully
			// executed and its ring entries published, so this drain
			// reproduces the sequential prefix exactly.
			e.drainLogs(bestKey, best)
		}
		err := s.commit(best, e)
		if commits++; err == nil && commits >= ctxCheckInterval {
			commits = 0
			if cerr := s.runCtx.Err(); cerr != nil {
				err = fmt.Errorf("sim: run canceled: %w", cerr)
			}
		}
		e.mu.Lock()
		if err != nil {
			return err
		}
		// Unpark: the core resumes in program order on its worker.
		e.pub[best].Store(c.time[best])
		e.status[best].Store(coreRunning)
		if w := e.owner[best]; w.waiting {
			w.waiting = false
			w.cond.Signal()
		}
	}
}

// seqWaitLocked parks the sequencer (mu held) until a worker signals:
// any park/finish, or — when waiting out a laggard — a publish at or
// past key.
func (e *parEngine) seqWaitLocked(key uint64) {
	e.wmKey.Store(key)
	e.wmWait.Store(true)
	e.seqCond.Wait()
	e.wmWait.Store(false)
}

// drainLogs replays side-channel ring entries up to and including the
// commit position (bk, bi): CLOCK reference bits (order among them is
// immaterial — each just sets a bit — but all must land before any
// later eviction consults them) and captured references (merged across
// cores so the sink sees the sequential Emit order).
func (e *parEngine) drainLogs(bk uint64, bi int) {
	if e.evictable {
		e.drainTouches(bk, bi)
	}
	if e.capturing {
		e.drainRefs(bk, bi)
	}
}

// drainTouches applies logged frame touches with (key, id) <= (bk, bi)
// as CLOCK reference bits. Entries appended concurrently carry larger
// keys (commit safety), so a tail snapshot suffices.
func (e *parEngine) drainTouches(bk uint64, bi int) {
	s := e.s
	for i := range e.touches {
		r := &e.touches[i]
		h, t := r.head.Load(), r.tail.Load()
		for ; h != t; h++ {
			k := r.key[h&parRingMask]
			if k > bk || (k == bk && i > bi) {
				break
			}
			s.os.MarkReferenced(r.frame[h&parRingMask])
		}
		r.head.Store(h)
	}
}

// drainRefs emits captured references with (key, id) <= (bk, bi) to
// the trace sink in the scheduler's global (key, id) order. Per-core
// rings are key-sorted (keys are pre-step clocks), so a k-way merge
// over the ring heads reproduces the sequential Emit sequence — the
// property that makes threaded re-capture byte-identical.
func (e *parEngine) drainRefs(bk uint64, bi int) {
	s := e.s
	for {
		best := -1
		var bestKey uint64
		for i := range e.refs {
			r := &e.refs[i]
			h := r.head.Load()
			if h == r.tail.Load() {
				continue
			}
			k := r.key[h&parRingMask]
			if k > bk || (k == bk && i > bi) {
				continue
			}
			if best < 0 || k < bestKey {
				best, bestKey = i, k
			}
		}
		if best < 0 {
			return
		}
		r := &e.refs[best]
		h := r.head.Load()
		s.opts.TraceSink.Emit(best, r.ref[h&parRingMask])
		r.head.Store(h + 1)
	}
}

// evictingTranslate commits a fault that must evict: quiesce the
// workers behind the fence, run the authoritative translation (CLOCK
// sees the commit-ordered reference bits, so it picks the sequential
// victim), and verify no run-ahead step already translated against the
// reclaimed frame. The page-table generation the eviction bumps is what
// workers validate against once the fence drops.
func (e *parEngine) evictingTranslate(i int, vaddr uint64) (phys uint64, stall uint64, err error) {
	s := e.s
	c := &s.cores
	if err := e.quiesce(); err != nil {
		return 0, 0, err
	}
	defer e.unfence()
	gen := s.os.PageGen()
	p, st := s.os.Translate(c.proc[i], vaddr, c.time[i])
	if s.os.PageGen() != gen {
		victim := s.os.LastEvictedFrame()
		if e.victimTouched(victim) {
			return 0, 0, fmt.Errorf("sim: parallel engine: committed fault on core %d evicted frame %d already used by a run-ahead translation: %w", i, victim, ErrRunAheadCollision)
		}
	}
	return uint64(p), st, nil
}

// victimTouched reports whether any undrained run-ahead translation
// resolved to the victim frame. Undrained touch entries are exactly the
// steps that sequentially follow the eviction but translated against
// the pre-eviction page table — the set whose private-cache state would
// be stale. An eviction invalidates exactly one (process, vpage, frame)
// binding, so every other undrained translation remains valid.
func (e *parEngine) victimTouched(victim uint32) bool {
	for i := range e.touches {
		r := &e.touches[i]
		for h, t := r.head.Load(), r.tail.Load(); h != t; h++ {
			if r.frame[h&parRingMask] == victim {
				return true
			}
		}
	}
	return false
}

// quiesce raises the eviction fence and waits until no worker is
// mid-step: each is parked at the fence, asleep with every owned core
// parked or done, or exited. Nothing unparks cores while the sequencer
// is here, so the quiescent state holds until unfence.
func (e *parEngine) quiesce() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.fencing = true
	e.fence.Store(true)
	for !e.quiescedLocked() {
		if e.stopped {
			e.fencing = false
			e.fence.Store(false)
			if e.err != nil {
				return e.err
			}
			return fmt.Errorf("sim: parallel engine: pass stopped during eviction fence")
		}
		e.seqCond.Wait()
	}
	return nil
}

func (e *parEngine) quiescedLocked() bool {
	for _, w := range e.workers {
		if !(w.fenced || w.waiting || w.exited) {
			return false
		}
	}
	return true
}

// unfence drops the eviction fence and releases fence-parked workers.
func (e *parEngine) unfence() {
	e.mu.Lock()
	e.fencing = false
	e.fence.Store(false)
	for _, w := range e.workers {
		if w.fenced {
			w.cond.Signal()
		}
	}
	e.mu.Unlock()
}

// fenceWait parks the calling worker at the eviction fence until the
// sequencer drops it (or the pass stops).
func (w *parWorker) fenceWait() {
	e := w.eng
	e.mu.Lock()
	if e.fencing {
		w.fenced = true
		e.seqCond.Signal()
		for e.fencing && !e.stopped {
			w.cond.Wait()
		}
		w.fenced = false
	}
	e.mu.Unlock()
}

// fail records the first error and wakes everyone so the pass unwinds.
func (e *parEngine) fail(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.stopped = true
	e.stop.Store(true)
	for _, w := range e.workers {
		if w.waiting || w.fenced {
			w.waiting = false
			w.cond.Signal()
		}
	}
	e.mu.Unlock()
	e.seqCond.Signal()
}

// run is a worker's main loop: pick the owned runnable core with the
// smallest clock, run it for up to parBatchSteps local steps, repeat;
// sleep when every owned core is parked, exit when all are done or the
// pass stops. The eviction fence is honoured between steps, so a fence
// raised mid-step waits at most one step's work.
func (w *parWorker) run() {
	e := w.eng
	s := e.s
	c := &s.cores
	steps := 0
	for {
		i := w.pickCore()
		if i < 0 {
			if w.sleep() {
				return
			}
			continue
		}
		for k := 0; k < parBatchSteps; k++ {
			if e.stop.Load() {
				return
			}
			if e.fence.Load() {
				w.fenceWait()
				break
			}
			if steps++; steps >= ctxCheckInterval {
				steps = 0
				if err := s.runCtx.Err(); err != nil {
					e.fail(fmt.Errorf("sim: run canceled: %w", err))
					return
				}
			}
			if c.instr[i] >= c.budget[i] {
				w.finish(i)
				break
			}
			if w.stepLocal(i) {
				break // parked on a shared-phase event
			}
		}
	}
}

// pickCore returns the owned running core with the smallest clock, or
// -1. Reading c.time of an owned core is safe: running cores are
// stepped only by this worker, and the sequencer's writes during a park
// are ordered before the running status it stores afterwards.
func (w *parWorker) pickCore() int {
	e := w.eng
	c := &e.s.cores
	best := -1
	for i := w.lo; i < w.hi; i++ {
		if e.status[i].Load() != coreRunning {
			continue
		}
		if best < 0 || c.time[i] < c.time[best] {
			best = i
		}
	}
	return best
}

// sleep blocks until an owned core is runnable. It reports true when
// the worker should exit (pass stopped or every owned core done).
func (w *parWorker) sleep() (exit bool) {
	e := w.eng
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		if e.stopped {
			return true
		}
		allDone := true
		for i := w.lo; i < w.hi; i++ {
			switch e.status[i].Load() {
			case coreRunning:
				return false
			case coreParked:
				allDone = false
			}
		}
		if allDone {
			return true
		}
		w.waiting = true
		if e.fencing {
			// A sleeping worker is quiescent; tell the fencing sequencer.
			e.seqCond.Signal()
		}
		w.cond.Wait()
	}
}

// stepLocal runs one step's core-local prefix on core i (see
// System.stepPrivate), parking the shared suffix if the step needs one.
// It reports whether the core parked.
func (w *parWorker) stepLocal(i int) (parked bool) {
	e := w.eng
	s := e.s
	c := &s.cores
	key := c.time[i] // pre-step clock = commit key; pub[i] already equals it
	if (e.capturing && e.refs[i].full()) || (e.evictable && e.touches[i].full()) {
		// Out of side-channel room: park a no-op sync event so the
		// sequencer drains the rings in commit order, then retry.
		c.ev[i] = stepEvent{kind: evSync}
		w.park(i, key)
		return true
	}
	if s.stepPrivate(i, key, e) {
		w.park(i, key)
		return true
	}
	w.publish(i, c.time[i])
	return false
}

// park hands core i to the sequencer. The event (and the step's state
// written so far) is made visible by the atomic status store; the
// signal lands after any in-progress sequencer scan holding mu.
func (w *parWorker) park(i int, key uint64) {
	e := w.eng
	e.s.cores.key[i] = key
	e.pub[i].Store(key)
	e.mu.Lock()
	e.status[i].Store(coreParked)
	e.mu.Unlock()
	e.seqCond.Signal()
}

// finish marks core i's budget exhausted for this pass.
func (w *parWorker) finish(i int) {
	e := w.eng
	e.pub[i].Store(math.MaxUint64)
	e.mu.Lock()
	e.status[i].Store(coreDone)
	e.nDone++
	e.mu.Unlock()
	e.seqCond.Signal()
}

// publish advances core i's clock lower bound after a fully local step
// and wakes the sequencer if the new clock crosses its armed watermark.
func (w *parWorker) publish(i int, clock uint64) {
	e := w.eng
	e.pub[i].Store(clock)
	if e.wmWait.Load() && clock >= e.wmKey.Load() {
		// Acquiring mu serialises with the sequencer: either it is
		// inside Wait (the signal wakes it) or it has not yet decided to
		// wait (its re-scan will see the new pub).
		e.mu.Lock()
		e.wmWait.Store(false)
		e.mu.Unlock()
		e.seqCond.Signal()
	}
}
