package pool

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{Workers: 1, F: 1.5, Delta: 1},
		{Workers: 4, F: 1.0, Delta: 1},
		{Workers: 4, F: 1.5, Delta: 0},
		{Workers: 4, F: 1.5, Delta: 4},
	}
	for i, c := range cases {
		if _, err := New(c); err == nil {
			t.Fatalf("case %d accepted: %+v", i, c)
		}
	}
}

func TestAllTasksExecuteExactlyOnce(t *testing.T) {
	p, err := New(Config{Workers: 4, F: 1.5, Delta: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const n = 5000
	var counter atomic.Int64
	executions := make([]atomic.Int32, n)
	for i := 0; i < n; i++ {
		i := i
		p.Submit(func(w *Worker) {
			executions[i].Add(1)
			counter.Add(1)
		})
	}
	p.Wait()
	if counter.Load() != n {
		t.Fatalf("executed %d of %d", counter.Load(), n)
	}
	for i := range executions {
		if got := executions[i].Load(); got != 1 {
			t.Fatalf("task %d executed %d times", i, got)
		}
	}
	s := p.Stats()
	if s.Submitted != n {
		t.Fatalf("submitted %d", s.Submitted)
	}
	var sum int64
	for _, e := range s.Executed {
		sum += e
	}
	if sum != n {
		t.Fatalf("per-worker executed sums to %d", sum)
	}
}

func TestRecursiveGeneration(t *testing.T) {
	// A binary task tree of depth 12 spawned from one root: 2^13 − 1 tasks.
	p, err := New(Config{Workers: 8, F: 1.3, Delta: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var counter atomic.Int64
	var spawn func(depth int) Task
	spawn = func(depth int) Task {
		return func(w *Worker) {
			counter.Add(1)
			if depth > 0 {
				w.Submit(spawn(depth - 1))
				w.Submit(spawn(depth - 1))
			}
		}
	}
	p.Submit(spawn(12))
	p.Wait()
	want := int64(1<<13 - 1)
	if counter.Load() != want {
		t.Fatalf("executed %d, want %d", counter.Load(), want)
	}
}

// rendezvous makes "the pool spread the work" a liveness property
// instead of a guess about the scheduler: every task calls enter, which
// blocks until each of the pool's workers is inside some task. A worker
// stuck in enter still exposes its queue, so the test finishes exactly
// when balancing (or stealing) hands every other worker a task — no
// matter who wakes first or how fast a task runs.
type rendezvous struct {
	mu       sync.Mutex
	arrived  map[int]bool
	workers  int
	released chan struct{} // closed once all workers arrived, or by the watchdog
	open     sync.Once
	timedOut bool
	watchdog *time.Timer
}

// rendezvousDeadline is a watchdog, not an expectation: a pool that
// cannot spread work would otherwise hang the test binary.
const rendezvousDeadline = 30 * time.Second

func newRendezvous(workers int) *rendezvous {
	r := &rendezvous{arrived: map[int]bool{}, workers: workers, released: make(chan struct{})}
	r.watchdog = time.AfterFunc(rendezvousDeadline, func() {
		r.open.Do(func() { r.timedOut = true; close(r.released) })
	})
	return r
}

func (r *rendezvous) enter(worker int) {
	r.mu.Lock()
	r.arrived[worker] = true
	all := len(r.arrived) == r.workers
	r.mu.Unlock()
	if all {
		r.open.Do(func() { close(r.released) })
	}
	<-r.released
}

// check fails the test if the watchdog opened the gate rather than the
// last worker arriving. Call after the pool's Wait.
func (r *rendezvous) check(t *testing.T) {
	t.Helper()
	r.watchdog.Stop()
	if r.timedOut {
		t.Fatalf("after %v only workers %v of %d had entered a task", rendezvousDeadline, r.arrived, r.workers)
	}
}

func TestBalancingSpreadsWork(t *testing.T) {
	// All tasks enter at worker 0 (hotspot) and none finishes until every
	// worker holds one: the submit-side trigger and the dry workers' own
	// balance calls have to move tasks off the hotspot.
	p, err := New(Config{Workers: 4, F: 1.2, Delta: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const n = 4000
	rv := newRendezvous(p.Workers())
	var counter atomic.Int64
	for i := 0; i < n; i++ {
		p.workers[0].Submit(func(w *Worker) {
			rv.enter(w.ID())
			counter.Add(1)
		})
	}
	p.Wait()
	rv.check(t)
	if counter.Load() != n {
		t.Fatalf("executed %d", counter.Load())
	}
	s := p.Stats()
	if s.Balances == 0 || s.Migrated == 0 {
		t.Fatalf("every worker ran a task but stats show %d balances moving %d tasks", s.Balances, s.Migrated)
	}
	for i, e := range s.Executed {
		if e == 0 {
			t.Fatalf("worker %d executed nothing: %v", i, s.Executed)
		}
	}
}

// busyWork burns deterministic CPU time without allocating.
func busyWork(iters int) uint64 {
	var x uint64 = 88172645463325252
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

func TestWaitWithNoTasks(t *testing.T) {
	p, err := New(Config{Workers: 2, F: 1.5, Delta: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	p.Wait() // must not hang
	p.Close()
}

func TestPoolCloseIdempotentWorkers(t *testing.T) {
	p, err := New(Config{Workers: 3, F: 1.5, Delta: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		p.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung")
	}
}

func TestStatsSpread(t *testing.T) {
	s := Stats{Executed: []int64{5, 9, 7}}
	if s.Spread() != 4 {
		t.Fatalf("spread = %d", s.Spread())
	}
	if (Stats{}).Spread() != 0 {
		t.Fatal("empty spread should be 0")
	}
}

func TestTriggerPredicate(t *testing.T) {
	// Growth: fires at qlen >= f·lOld with strict growth.
	if !trigger(2, 1, 1.5) {
		t.Fatal("2 vs 1 at f=1.5 should fire")
	}
	if trigger(1, 1, 1.5) {
		t.Fatal("no change should not fire")
	}
	if trigger(2, 2, 1.5) {
		t.Fatal("equal should not fire")
	}
	// Shrink: fires at qlen·f <= lOld with strict shrink.
	if !trigger(2, 3, 1.5) {
		t.Fatal("2 vs 3 at f=1.5 should fire (2*1.5=3<=3)")
	}
	if trigger(3, 4, 1.5) {
		t.Fatal("3 vs 4 at f=1.5 should not fire (4.5 > 4)")
	}
	// From zero.
	if !trigger(1, 0, 1.5) {
		t.Fatal("first task should fire")
	}
	if trigger(0, 0, 1.5) {
		t.Fatal("empty vs empty should not fire")
	}
	if !trigger(0, 1, 1.5) {
		t.Fatal("drain to zero should fire")
	}
}

func TestWorkerAccessors(t *testing.T) {
	p, err := New(Config{Workers: 2, F: 1.5, Delta: 1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var gotID int32 = -1
	var gotPool atomic.Pointer[Pool]
	p.Submit(func(w *Worker) {
		atomic.StoreInt32(&gotID, int32(w.ID()))
		gotPool.Store(w.Pool())
	})
	p.Wait()
	if id := atomic.LoadInt32(&gotID); id < 0 || id > 1 {
		t.Fatalf("worker id %d", id)
	}
	if gotPool.Load() != p {
		t.Fatal("Pool() returned wrong pool")
	}
	if p.Workers() != 2 {
		t.Fatal("Workers() wrong")
	}
}

// TestBalanceRemainderRotates drives balance directly (workers stopped,
// so no goroutine races) and checks that the total%m surplus tasks land
// on each participant near-uniformly — the regression for low-id workers
// deterministically pocketing the remainder on every operation.
func TestBalanceRemainderRotates(t *testing.T) {
	p, err := New(Config{Workers: 4, F: 1.5, Delta: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	p.Close() // stop the workers; we call balance by hand below
	nop := func(w *Worker) {}
	const trials = 2000
	extras := make([]int, len(p.workers))
	for trial := 0; trial < trials; trial++ {
		// Hotspot: 41 tasks at worker 0 → base 10, one extra.
		for _, w := range p.workers {
			w.queue = w.queue[:0]
		}
		for i := 0; i < 41; i++ {
			p.workers[0].queue = append(p.workers[0].queue, nop)
		}
		p.balance(p.workers[0])
		holders := 0
		for i, w := range p.workers {
			switch len(w.queue) {
			case 11:
				extras[i]++
				holders++
			case 10:
			default:
				t.Fatalf("worker %d holds %d tasks, want 10 or 11", i, len(w.queue))
			}
		}
		if holders != 1 {
			t.Fatalf("%d workers hold the extra, want 1", holders)
		}
	}
	// Uniform over 4 workers: 500 expected each, ±5σ ≈ ±97.
	for i, e := range extras {
		if e < 380 || e > 620 {
			t.Fatalf("worker %d got the extra %d/%d times (want ≈500): %v",
				i, e, trials, extras)
		}
	}
}

// TestIdleBackoffStillAcceptsWork: after the dry workers have backed off
// to their maximum sleep, newly submitted work must still execute
// promptly and drain the queued counter back to zero — the regression
// guarding the global-emptiness fast path against lost wakeups.
func TestIdleBackoffStillAcceptsWork(t *testing.T) {
	p, err := New(Config{Workers: 4, F: 1.3, Delta: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for round := 0; round < 3; round++ {
		// Let every worker reach maximum backoff (32 × 50µs = 1.6ms).
		time.Sleep(20 * time.Millisecond)
		const n = 200
		var counter atomic.Int64
		for i := 0; i < n; i++ {
			p.Submit(func(w *Worker) { counter.Add(1) })
		}
		done := make(chan struct{})
		go func() {
			p.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: pool wedged after going idle", round)
		}
		if counter.Load() != n {
			t.Fatalf("round %d: executed %d of %d", round, counter.Load(), n)
		}
		if q := p.queued.Value(); q != 0 {
			t.Fatalf("round %d: queued counter = %d after Wait, want 0", round, q)
		}
	}
}

func TestStealingValidation(t *testing.T) {
	if _, err := NewStealing(1, 1, 0); err == nil {
		t.Fatal("workers=1 accepted")
	}
}

func TestStealingAllTasksExecute(t *testing.T) {
	p, err := NewStealing(4, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const n = 5000
	var counter atomic.Int64
	for i := 0; i < n; i++ {
		p.Submit(func(r *StealWorkerRef) {
			counter.Add(1)
		})
	}
	p.Wait()
	if counter.Load() != n {
		t.Fatalf("executed %d of %d", counter.Load(), n)
	}
}

func TestStealingRecursiveAndSpread(t *testing.T) {
	p, err := NewStealing(4, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rv := newRendezvous(p.Workers())
	var counter atomic.Int64
	var spawn func(depth int) StealTask
	spawn = func(depth int) StealTask {
		return func(r *StealWorkerRef) {
			// Children first, so a worker parked in the rendezvous still
			// has something to steal.
			if depth > 0 {
				r.Submit(spawn(depth - 1))
				r.Submit(spawn(depth - 1))
			}
			rv.enter(r.ID())
			counter.Add(1)
		}
	}
	// Root enters at one worker; stealing must spread the tree.
	p.workers[0].submit(spawn(12))
	p.Wait()
	rv.check(t)
	want := int64(1<<13 - 1)
	if counter.Load() != want {
		t.Fatalf("executed %d, want %d", counter.Load(), want)
	}
	s := p.Stats()
	if s.Balances == 0 {
		t.Fatal("no steals happened")
	}
	for i, e := range s.Executed {
		if e == 0 {
			t.Fatalf("worker %d executed nothing: %v", i, s.Executed)
		}
	}
}

func TestStealingWorkerRefID(t *testing.T) {
	p, err := NewStealing(2, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var id atomic.Int32
	id.Store(-1)
	p.Submit(func(r *StealWorkerRef) { id.Store(int32(r.ID())) })
	p.Wait()
	if v := id.Load(); v < 0 || v > 1 {
		t.Fatalf("ref id %d", v)
	}
}

func BenchmarkLMPoolThroughput(b *testing.B) {
	p, err := New(Config{Workers: 8, F: 1.3, Delta: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Submit(func(w *Worker) { busyWork(50) })
	}
	p.Wait()
}

func BenchmarkStealingPoolThroughput(b *testing.B) {
	p, err := NewStealing(8, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Submit(func(r *StealWorkerRef) { busyWork(50) })
	}
	p.Wait()
}
