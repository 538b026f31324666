package netsim

import (
	"cmp"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"lmbalance/internal/cluster"
	"lmbalance/internal/flight"
	"lmbalance/internal/rng"
	"lmbalance/internal/wire"
)

// world is one cell of the seeded fault grid: a small network drawn from
// its seed, armed with the fault layer's mechanisms — drop, delay, crash
// schedules and short timeouts.
type world struct {
	seed uint64
	cfg  Config
}

func (w world) String() string {
	f := w.cfg.Faults
	return fmt.Sprintf("seed=%d n=%d δ=%d f=%.3f drop=%g delay=%d crashes=%d",
		w.seed, w.cfg.N, w.cfg.Delta, w.cfg.F, f.DropP, f.DelayMax, len(f.Crashes))
}

// drawWorld draws world seed: n ∈ 2..8, δ < n, f ∈ (1, δ+1), a uniform
// or one-hot workload, and up to three crashes, each anywhere from the
// first step to just after the last.
func drawWorld(seed uint64) world {
	r := rng.New(rng.Mix64(0x6772_6964, seed)) // "grid"
	n := 2 + r.Intn(7)
	delta := 1 + r.Intn(n-1)
	steps := 50 + r.Intn(351)
	cfg := Config{
		N: n, Delta: delta, F: 1.05 + r.Float64()*(float64(delta)-0.1), Steps: steps,
		GenP: []float64{0.2 + 0.6*r.Float64()}, ConP: []float64{0.1 + 0.5*r.Float64()},
		Seed: r.Uint64(),
		Faults: Faults{
			DropP:        []float64{0, 0.05, 0.2, 0.5, 0.9}[r.Intn(5)],
			DelayMax:     []int{0, 1, 3, 8}[r.Intn(4)],
			TimeoutTicks: []int{0, 5, 25}[r.Intn(3)],
			FreezeTicks:  []int{0, 0, 15, 60}[r.Intn(4)],
			Seed:         r.Uint64(),
		},
	}
	if r.Bernoulli(0.5) {
		// One hot node: the rest mostly consume.
		gen := make([]float64, n)
		gen[r.Intn(n)] = 0.9
		cfg.GenP = gen
	}
	for k := r.Intn(4); k > 0; k-- {
		cfg.Faults.Crashes = append(cfg.Faults.Crashes, Crash{
			Node: r.Intn(n), AtStep: r.Intn(steps + 1), DownTicks: r.Intn(300),
		})
	}
	return world{seed, cfg}
}

// TestFaultGrid runs the real node through 1 000 small seeded worlds —
// n ∈ 2..8, every δ < n, f anywhere in (1, δ+1), crossed with control
// loss, delay, short timeouts and fail-stop schedules (a crash may land
// mid-protocol, after the node's last step, or on the coordinator) — and
// holds each to the protocol's accounting: both packet-conservation
// audits, every operation resolved or aborted unless a crash wiped it,
// and a shutdown that ends within the ticks the timeouts and crash
// windows allow. A failure prints the world's one-line reproducer.
func TestFaultGrid(t *testing.T) {
	runGrid(t, func(w *world) string {
		var err error
		if w.cfg.Flight, err = Record("", w.cfg.N); err != nil {
			return err.Error()
		}
		res, err := Run(w.cfg)
		if err != nil {
			return err.Error()
		}
		if msg := w.audit(res); msg != "" {
			return msg
		}
		if _, _, err := Replay(res, w.cfg.Flight); err != nil {
			return err.Error()
		}
		return ""
	})
}

// TestServeFaultGrid runs the grid's worlds in serve mode: no node
// generates, and a seeded client submits jobs of 1–4 units to random
// nodes through Node.Ingest, between ticks, during the first half of
// the steps. Each world is held to audit, to job conservation (every
// ingested unit was completed for its job or is still recorded at
// shutdown), to the front end's count of completions agreeing with
// the nodes' UnitsDone, to its replay, and to its records riding the
// load (recordsRide). Records left held are legal: a crash or the
// shutdown can strand them.
func TestServeFaultGrid(t *testing.T) {
	var held, riders atomic.Int64
	runGrid(t, func(w *world) string {
		w.cfg.GenP = []float64{0}
		var completions int64
		hooks := &cluster.ServeHooks{Complete: func(uint64, cluster.Journey) { completions++ }}
		w.cfg.ServePerNode = make([]*cluster.ServeHooks, w.cfg.N)
		for i := range w.cfg.ServePerNode {
			w.cfg.ServePerNode[i] = hooks
		}
		var err error
		if w.cfg.Flight, err = Record("", w.cfg.N); err != nil {
			return err.Error()
		}
		s, err := New(w.cfg)
		if err != nil {
			return err.Error()
		}
		r := rng.New(rng.Mix64(0x7365_7276, w.seed)) // "serv"
		var id uint64
		for tick := int64(1); !s.Done(); tick++ {
			if tick <= int64(w.cfg.Steps/2) && r.Bernoulli(0.3) {
				id++
				s.Nodes()[r.Intn(w.cfg.N)].Ingest(tick, cluster.Submit{ID: id, Units: 1 + r.Intn(4)})
			}
			if err := s.Tick(); err != nil {
				return err.Error()
			}
		}
		res := s.Result()
		if msg := w.audit(res); msg != "" {
			return msg
		}
		if !res.JobsConserved() {
			return fmt.Sprintf("ingested %d, done %d, held %d", res.Ingested(), res.UnitsDone(), res.RecordsHeld())
		}
		if completions != res.UnitsDone() {
			return fmt.Sprintf("front end heard %d completions, nodes count %d", completions, res.UnitsDone())
		}
		if res.RecordsHeld() > 0 {
			held.Add(1)
		}
		rec, _, err := Replay(res, w.cfg.Flight)
		if err != nil {
			return err.Error()
		}
		n, msg := recordsRide(rec)
		riders.Add(n)
		return msg
	})
	t.Logf("%d of 1000 worlds ended with records held; %d Transfers and TransferAcks carried records", held.Load(), riders.Load())
	if riders.Load() == 0 {
		t.Fatal("no record rode a Transfer or TransferAck")
	}
}

// recordsRide checks a served world's recording for records paid beside
// the frame that moved their load: no node may send an operation's
// JobMove to a peer that the same operation's Transfer or TransferAck
// from it reaches, unless the JobMove is a full batch of a payment
// larger than wire.MaxJobsPerMsg (the last batch rides the frame). It
// returns the count of Transfers and TransferAcks that carried records
// and the first breach, or "".
func recordsRide(rec *flight.Recording) (riders int64, breach string) {
	type opPeer struct {
		op   uint64
		peer int
	}
	for _, nr := range rec.Nodes {
		reached := map[opPeer]bool{}
		for _, ev := range nr.Events {
			if k := ev.Msg.Kind; ev.Dir == flight.DirSend && (k == wire.Transfer || k == wire.TransferAck) {
				reached[opPeer{ev.Msg.Op, ev.Peer}] = true
				if len(ev.Msg.Jobs) > 0 {
					riders++
				}
			}
		}
		for _, ev := range nr.Events {
			m := &ev.Msg
			if ev.Dir == flight.DirSend && m.Kind == wire.JobMove && m.Op != 0 &&
				reached[opPeer{m.Op, ev.Peer}] && len(m.Jobs) < wire.MaxJobsPerMsg && breach == "" {
				breach = fmt.Sprintf("node %d sent op %#x's %d records to node %d in a JobMove, beside a frame of that op",
					nr.Node, m.Op, len(m.Jobs), ev.Peer)
			}
		}
	}
	return riders, breach
}

// runGrid runs check on worlds 0..999, spread over one worker per CPU
// (each world is single-threaded and a pure function of its seed), and
// fails with the lowest-seeded world's reproducer and complaint.
func runGrid(t *testing.T, check func(w *world) string) {
	const worlds = 1000
	fails := make([]string, worlds)
	var next atomic.Uint64
	var wg sync.WaitGroup
	for k := 0; k < runtime.GOMAXPROCS(0); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := next.Add(1) - 1; seed < worlds; seed = next.Add(1) - 1 {
				w := drawWorld(seed)
				if msg := check(&w); msg != "" {
					fails[seed] = fmt.Sprintf("%v: %s", w, msg)
				}
			}
		}()
	}
	wg.Wait()
	for _, f := range fails {
		if f != "" {
			t.Fatal(f)
		}
	}
}

// audit returns what is wrong with a world's result, or "".
func (w world) audit(res *Result) string {
	cfg, f := &w.cfg, &w.cfg.Faults
	if !res.Conserved() {
		return fmt.Sprintf("per-node counters not conserved: %+v", res.Nodes)
	}
	if s := res.Summary; !s.Conserved() || s.Nodes != cfg.N || s.TotalLoad != res.TotalLoad() {
		return fmt.Sprintf("coordinator's Bye sum %+v disagrees (final load %d)", s, res.TotalLoad())
	}
	var down int64 // ticks spent crashed, the crashing turns included
	for _, c := range f.Crashes {
		down += 1 + int64(cmp.Or(c.DownTicks, defaultDownTicks))
	}
	for i, n := range res.Nodes {
		if lost := n.Initiated - n.Completed - n.Aborted; lost < 0 || lost > res.Faults[i].Crashes {
			return fmt.Sprintf("node %d: %d initiated, %d completed, %d aborted, %d crashes",
				i, n.Initiated, n.Completed, n.Aborted, res.Faults[i].Crashes)
		}
	}
	// A node steps on every live, unengaged turn. Its own operation
	// engages it for at most timeout+1 ticks, a freeze for at most
	// freeze+1, and every operation in the world freezes it at most once;
	// crash windows add their length. After the last step, what is still
	// engaged or in flight settles within a timeout, a freeze and a delay,
	// and Idle → Quit → Bye takes three ticks.
	timeout, freeze := f.timeouts()
	bound := int64(cfg.Steps) + res.Initiated()*(timeout+freeze+2) + 2*down +
		timeout + freeze + int64(f.DelayMax) + 8
	if ticks := int64(res.Elapsed); ticks > bound {
		return fmt.Sprintf("shutdown ended at tick %d, bound %d", ticks, bound)
	}
	return ""
}
