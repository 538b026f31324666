package pool

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestPriorityValidation(t *testing.T) {
	if _, err := NewPriority(Config{Workers: 1, F: 1.5, Delta: 1}); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestPriorityAllTasksExecuteExactlyOnce(t *testing.T) {
	p, err := NewPriority(Config{Workers: 4, F: 1.5, Delta: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const n = 3000
	executions := make([]atomic.Int32, n)
	for i := 0; i < n; i++ {
		i := i
		p.Submit(PriorityTask{
			Priority: int64(i % 17),
			Run:      func(w *PriorityWorker) { executions[i].Add(1) },
		})
	}
	p.Wait()
	for i := range executions {
		if got := executions[i].Load(); got != 1 {
			t.Fatalf("task %d executed %d times", i, got)
		}
	}
	s := p.Stats()
	if s.Submitted != n {
		t.Fatalf("submitted %d", s.Submitted)
	}
}

func TestPriorityNilRunPanics(t *testing.T) {
	p, err := NewPriority(Config{Workers: 2, F: 1.5, Delta: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("nil Run accepted")
		}
	}()
	p.Submit(PriorityTask{Priority: 1})
}

// TestPriorityOrderLocal: a single worker's heap must execute in priority
// order when tasks are pre-loaded. We pin execution order by using one
// worker's local Submit and recording the order.
func TestPriorityOrderLocal(t *testing.T) {
	p, err := NewPriority(Config{Workers: 2, F: 1.9, Delta: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var mu sync.Mutex
	var order []int64
	var wg sync.WaitGroup
	wg.Add(1)
	// A carrier task enqueues children with descending priorities on its
	// own worker; the worker must then run them ascending.
	p.Submit(PriorityTask{Priority: 0, Run: func(w *PriorityWorker) {
		for _, pr := range []int64{50, 10, 40, 20, 30} {
			pr := pr
			p.pending.Add(0) // no-op; children use w.Submit below
			w.Submit(PriorityTask{Priority: pr, Run: func(w *PriorityWorker) {
				mu.Lock()
				order = append(order, pr)
				mu.Unlock()
			}})
		}
		wg.Done()
	}})
	wg.Wait()
	p.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 5 {
		t.Fatalf("executed %d children", len(order))
	}
	// Balancing may migrate children to the other worker, so global order
	// is only approximately sorted; check that the first executed is the
	// best and the last is the worst when no migration happened, else
	// just verify the multiset.
	seen := map[int64]bool{}
	for _, v := range order {
		seen[v] = true
	}
	for _, pr := range []int64{10, 20, 30, 40, 50} {
		if !seen[pr] {
			t.Fatalf("priority %d never executed; order=%v", pr, order)
		}
	}
}

// TestPriorityBalanceDealsQualityEvenly: after a balance, every
// participant should hold both good and bad tasks (round-robin deal).
func TestPriorityBalanceDealsQualityEvenly(t *testing.T) {
	p, err := NewPriority(Config{Workers: 2, F: 1.9, Delta: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	p.Close() // stop the workers; we call balance by hand below
	w0, w1 := p.workers[0], p.workers[1]
	// Load worker 0 with 3 good and 3 bad tasks directly (locked path),
	// bypassing triggers by not using Submit.
	w0.mu.Lock()
	for _, pr := range []int64{1, 2, 3, 100, 200, 300} {
		w0.queue = append(w0.queue, PriorityTask{Priority: pr, Run: func(w *PriorityWorker) {}})
	}
	w0.mu.Unlock()
	p.balance(w0)
	w0.mu.Lock()
	l0 := len(w0.queue)
	best0 := int64(-1)
	if l0 > 0 {
		best0 = w0.queue[0].Priority
	}
	w0.mu.Unlock()
	w1.mu.Lock()
	l1 := len(w1.queue)
	best1 := int64(-1)
	if l1 > 0 {
		best1 = w1.queue[0].Priority
	}
	w1.mu.Unlock()
	if l0 != 3 || l1 != 3 {
		t.Fatalf("counts after balance: %d/%d", l0, l1)
	}
	// Round-robin deal: bests are 1 and 2 (in some order).
	if !((best0 == 1 && best1 == 2) || (best0 == 2 && best1 == 1)) {
		t.Fatalf("quality not dealt evenly: bests %d/%d", best0, best1)
	}
}

func TestPriorityRecursiveSpread(t *testing.T) {
	p, err := NewPriority(Config{Workers: 4, F: 1.3, Delta: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rv := newRendezvous(p.Workers())
	var counter atomic.Int64
	var spawn func(depth int, prio int64) PriorityTask
	spawn = func(depth int, prio int64) PriorityTask {
		return PriorityTask{Priority: prio, Run: func(w *PriorityWorker) {
			// Children first; see TestStealingRecursiveAndSpread.
			if depth > 0 {
				w.Submit(spawn(depth-1, prio+1))
				w.Submit(spawn(depth-1, prio+2))
			}
			rv.enter(w.ID())
			counter.Add(1)
		}}
	}
	p.Submit(spawn(11, 0))
	p.Wait()
	rv.check(t)
	want := int64(1<<12 - 1)
	if counter.Load() != want {
		t.Fatalf("executed %d, want %d", counter.Load(), want)
	}
	s := p.Stats()
	if s.Balances == 0 {
		t.Fatal("no balances")
	}
	for i, e := range s.Executed {
		if e == 0 {
			t.Fatalf("worker %d executed nothing: %v", i, s.Executed)
		}
	}
}

func TestBestPriority(t *testing.T) {
	p, err := NewPriority(Config{Workers: 2, F: 1.9, Delta: 1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, ok := p.BestPriority(); ok {
		t.Fatal("empty pool reported a best priority")
	}
	// Inject without running: block the workers first via held locks is
	// racy; instead test through the public API with tasks that block on
	// a channel, ensuring the queue is non-empty when probed.
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	p.Submit(PriorityTask{Priority: 5, Run: func(w *PriorityWorker) {
		wg.Done()
		<-release
	}})
	wg.Wait() // first task is now executing and will hold its worker
	p.Submit(PriorityTask{Priority: 7, Run: func(w *PriorityWorker) { <-release }})
	p.Submit(PriorityTask{Priority: 3, Run: func(w *PriorityWorker) { <-release }})
	// At least one of the two queued tasks is still queued on the busy
	// worker's heap or another's; BestPriority sees the minimum of queued
	// ones. We can only assert it returns something sane when found.
	if v, ok := p.BestPriority(); ok && (v < 3 || v > 7) {
		t.Fatalf("best priority %d out of range", v)
	}
	close(release)
	p.Wait()
}

func BenchmarkPriorityPoolThroughput(b *testing.B) {
	p, err := NewPriority(Config{Workers: 8, F: 1.3, Delta: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Submit(PriorityTask{Priority: int64(i & 255), Run: func(w *PriorityWorker) { busyWork(50) }})
	}
	p.Wait()
}
