package serve

import (
	"fmt"
	"time"

	"lmbalance/internal/cluster"
	"lmbalance/internal/flight"
	"lmbalance/internal/obs"
	"lmbalance/internal/wire"
)

// ClusterSpec shapes a serving cluster for StartServeCluster: N nodes,
// each with a TCP cluster transport, a client front-end listener, zero
// spontaneous generation, and wall-clock stepping so ConP/StepInterval
// is the node's service capacity in units per second.
type ClusterSpec struct {
	N     int
	Delta int
	F     float64
	// ConP is the per-step consume probability; with StepInterval it
	// sets each node's service rate ConP/StepInterval units/second.
	ConP         float64
	StepInterval time.Duration
	Seed         uint64
	// NoBalance disables balancing initiation (the control arm).
	NoBalance bool
	// Obs, when non-nil, aggregates node and server metrics.
	Obs *obs.Registry
	// Flight, when non-empty (length N), gives node i a flight recorder:
	// the harness wraps node i's cluster transport with Flight[i].Tap and
	// hands the recorder to the node for local-decision records. Nil
	// entries leave that node unrecorded. The caller owns the recorders
	// (close them after DrainAndStop).
	Flight []*flight.Recorder
}

// ServeCluster is a running serving cluster: N nodes balancing among
// themselves, each fronted by a client Server, plus the machinery to
// stop the run and collect its accounting.
type ServeCluster struct {
	Servers []*Server
	stop    chan struct{}
	resCh   chan runOutcome
}

type runOutcome struct {
	res *cluster.Result
	err error
}

// StartServeCluster brings up the cluster and its front-ends, runs the
// node loops in the background, and returns once every client listener
// is accepting.
func StartServeCluster(spec ClusterSpec) (*ServeCluster, error) {
	if spec.N < 2 {
		return nil, fmt.Errorf("serve: need at least 2 nodes, got %d", spec.N)
	}
	if spec.StepInterval <= 0 {
		return nil, fmt.Errorf("serve: StepInterval must be positive (it is the service clock)")
	}
	if len(spec.Flight) > 0 && len(spec.Flight) != spec.N {
		return nil, fmt.Errorf("serve: %d flight recorders for %d nodes", len(spec.Flight), spec.N)
	}
	transports, err := wire.LocalTransports(spec.N, false)
	if err != nil {
		return nil, fmt.Errorf("serve: cluster transport: %w", err)
	}
	for i := range transports {
		if len(spec.Flight) > 0 {
			transports[i] = spec.Flight[i].Tap(transports[i])
		}
	}

	servers := make([]*Server, spec.N)
	hooks := make([]*cluster.ServeHooks, spec.N)
	closeAll := func() {
		for _, s := range servers {
			if s != nil {
				s.Close()
			}
		}
	}
	for i := range servers {
		s, err := NewServer(i, "127.0.0.1:0", spec.Obs)
		if err != nil {
			closeAll()
			for _, tr := range transports {
				tr.Close()
			}
			return nil, err
		}
		servers[i] = s
		hooks[i] = s.Hooks()
	}

	stop := make(chan struct{})
	nodes, err := cluster.NewNodes(cluster.ClusterConfig{
		N: spec.N, Delta: spec.Delta, F: spec.F,
		// Steps is effectively unbounded; the run ends via Stop.
		Steps: 1 << 30,
		GenP:  []float64{0}, ConP: []float64{spec.ConP},
		Seed:         spec.Seed,
		Obs:          spec.Obs,
		StepInterval: spec.StepInterval,
		NoBalance:    spec.NoBalance,
		Stop:         stop,
		ServePerNode: hooks,
		Flight:       spec.Flight,
	}, transports)
	if err != nil {
		closeAll()
		return nil, err
	}
	sc := &ServeCluster{Servers: servers, stop: stop, resCh: make(chan runOutcome, 1)}
	go func() {
		res, err := cluster.RunNodes(nodes)
		sc.resCh <- runOutcome{res, err}
	}()
	return sc, nil
}

// Addrs returns the client-facing addresses, indexed by node.
func (sc *ServeCluster) Addrs() []string {
	out := make([]string, len(sc.Servers))
	for i, s := range sc.Servers {
		out[i] = s.Addr()
	}
	return out
}

// TotalStats sums the per-node server accounting.
func (sc *ServeCluster) TotalStats() Stats {
	var t Stats
	for _, s := range sc.Servers {
		st := s.Stats()
		t.JobsAccepted += st.JobsAccepted
		t.JobsCompleted += st.JobsCompleted
		t.UnitsAccepted += st.UnitsAccepted
		t.UnitsCompleted += st.UnitsCompleted
		t.DonesDropped += st.DonesDropped
		t.AcksDropped += st.AcksDropped
		t.ConnFrames += st.ConnFrames
		t.ConnFlushes += st.ConnFlushes
		t.InflightUnits += st.InflightUnits
	}
	return t
}

// DrainAndStop waits — up to timeout — for every accepted unit to
// complete, then stops the cluster, shuts the front-ends, and returns
// the cluster-side result. The drain must come first: once Stop fires,
// nodes fast-forward into shutdown and ingested-but-unserved units
// would be stranded as held records. A run that fails to drain still
// stops cleanly; the caller sees the imbalance in the returned
// accounting (Result.RecordsHeld > 0, InflightUnits > 0).
func (sc *ServeCluster) DrainAndStop(timeout time.Duration) (*cluster.Result, Stats, error) {
	deadline := time.Now().Add(timeout)
	// Quiescence, not just equality: right after the last client write
	// the servers may not have read the submissions yet, so completed ==
	// accepted can hold vacuously. Require the balance to hold across a
	// stability window with no new acceptances before declaring drained.
	var lastAccepted int64 = -1
	stableSince := time.Now()
	for {
		t := sc.TotalStats()
		balanced := t.UnitsCompleted >= t.UnitsAccepted
		if !balanced || t.UnitsAccepted != lastAccepted {
			lastAccepted = t.UnitsAccepted
			stableSince = time.Now()
		}
		if balanced && time.Since(stableSince) >= 50*time.Millisecond {
			break
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(sc.stop)
	out := <-sc.resCh
	final := sc.TotalStats()
	for _, s := range sc.Servers {
		s.Close()
	}
	return out.res, final, out.err
}
