package cluster

import (
	"fmt"
	"time"

	"lmbalance/internal/flight"
	"lmbalance/internal/obs"
	"lmbalance/internal/topology"
	"lmbalance/internal/wire"
)

// ClusterConfig parameterizes an in-process cluster run: N nodes of the
// given shape, one per transport. It is the multi-node convenience
// around Config — the experiments, the benchmark harness and the
// integration tests run through it. An embedder that needs a per-node
// Config (its own registry, say) builds each node with New and runs
// them with RunNodes instead.
type ClusterConfig struct {
	// N, Delta, F, Steps as in Config.
	N     int
	Delta int
	F     float64
	Steps int
	// GenP[i] and ConP[i] are node i's per-step generate/consume
	// probabilities. Length N, or length 1 to apply to all nodes
	// (netsim's convention). Empty selects the defaults 0.5 / 0.4.
	GenP, ConP []float64
	// Seed seeds the whole cluster; node i draws from the stream
	// rng.Mix64(Seed, i).
	Seed uint64
	// Graph, if non-nil, restricts node i's balancing partners to its
	// neighbourhood (Config.Neighbors). It must have N vertices, and
	// every vertex needs at least one neighbour.
	Graph *topology.Graph
	// Timeout, FreezeTimeout, MinInitGap as in Config.
	Timeout, FreezeTimeout, MinInitGap time.Duration
	// Pace as in Config: the initiation pacing policy, applied to every
	// node.
	Pace PaceMode
	// Obs is handed to every node, so the whole cluster aggregates into
	// one registry (abort reasons, phase timings, the live load
	// distribution). Nil disables instrumentation.
	Obs *obs.Registry
	// StepInterval, NoBalance, Stop as in Config, applied to every node.
	StepInterval time.Duration
	NoBalance    bool
	Stop         <-chan struct{}
	// ServePerNode, when non-empty (length N), puts node i in serve mode
	// with the given hooks (nil entries leave that node plain). Serve
	// mode requires the node's GenP to be 0.
	ServePerNode []*ServeHooks
	// Flight, when non-empty (length N), gives node i its flight
	// recorder (nil entries leave that node unrecorded). The caller must
	// have wrapped transports[i] with Flight[i].Tap so frames and local
	// decisions land in the same recording; netsim records its nodes'
	// sends itself.
	Flight []*flight.Recorder
}

func probAt(ps []float64, i int) float64 {
	if len(ps) == 1 {
		return ps[0]
	}
	return ps[i]
}

// Result is the outcome of an in-process cluster run.
type Result struct {
	Nodes   []Stats
	Summary Summary // the coordinator's Bye-derived accounting
	Elapsed time.Duration
}

// sum adds one counter over the nodes.
func (r *Result) sum(field func(*Stats) int64) int64 {
	var sum int64
	for i := range r.Nodes {
		sum += field(&r.Nodes[i])
	}
	return sum
}

// TotalLoad returns the sum of final loads.
func (r *Result) TotalLoad() int64 {
	return r.sum(func(s *Stats) int64 { return int64(s.FinalLoad) })
}

// Spread returns max−min of final loads.
func (r *Result) Spread() int {
	lo, hi := r.Nodes[0].FinalLoad, r.Nodes[0].FinalLoad
	for _, n := range r.Nodes[1:] {
		lo, hi = min(lo, n.FinalLoad), max(hi, n.FinalLoad)
	}
	return hi - lo
}

// Messages returns the total messages put on the wire.
func (r *Result) Messages() int64 { return r.sum(func(s *Stats) int64 { return s.MsgsSent }) }

// Bytes returns the total bytes put on the wire.
func (r *Result) Bytes() int64 { return r.sum(func(s *Stats) int64 { return s.BytesSent }) }

// Initiated returns the total initiated balancing operations.
func (r *Result) Initiated() int64 { return r.sum(func(s *Stats) int64 { return s.Initiated }) }

// Completed returns the total completed balancing operations.
func (r *Result) Completed() int64 { return r.sum(func(s *Stats) int64 { return s.Completed }) }

// Partners returns the partners the completed operations balanced with:
// Partners/Completed is the δ the run actually got (see Stats.Partners).
func (r *Result) Partners() int64 { return r.sum(func(s *Stats) int64 { return s.Partners }) }

// Timeouts returns the collects the reply timeout ended, across nodes.
func (r *Result) Timeouts() int64 { return r.sum(func(s *Stats) int64 { return s.Timeouts }) }

// FreezeExpired returns the freezes released by the partner's own
// timeout, across nodes.
func (r *Result) FreezeExpired() int64 { return r.sum(func(s *Stats) int64 { return s.FreezeExpired }) }

// RateLimited returns the total deferral episodes across nodes, and
// RateLimitedSteps the raw deferred trigger firings (see Stats).
func (r *Result) RateLimited() (episodes, steps int64) {
	return r.sum(func(s *Stats) int64 { return s.RateLimited }),
		r.sum(func(s *Stats) int64 { return s.RateLimitedSteps })
}

// Ingested returns the total load units accepted from client
// submissions (serve mode).
func (r *Result) Ingested() int64 { return r.sum(func(s *Stats) int64 { return s.Ingested }) }

// UnitsDone returns the total units completed across all jobs (serve
// mode; counted at each job's origin node).
func (r *Result) UnitsDone() int64 { return r.sum(func(s *Stats) int64 { return s.UnitsDone }) }

// RecordsHeld returns the job records still held at shutdown (serve
// mode; nonzero only when the run was stopped with work outstanding).
func (r *Result) RecordsHeld() int64 { return r.sum(func(s *Stats) int64 { return s.RecordsHeld }) }

// JobsConserved reports serving-path work conservation: every ingested
// unit was either completed for its job or is still recorded on some
// node — the record-level analog of Conserved.
func (r *Result) JobsConserved() bool {
	return r.Ingested() == r.UnitsDone()+r.RecordsHeld()
}

// Conserved reports exact packet conservation, computed from the
// per-node counters (every node's own ground truth, independent of the
// coordinator's Bye-message bookkeeping — the two must agree).
func (r *Result) Conserved() bool {
	return r.TotalLoad() == r.sum(func(s *Stats) int64 { return s.Generated - s.Consumed })
}

// RunCluster starts one node per transport and blocks until the whole
// cluster has retired through the two-phase shutdown. transports[i] is
// node i's; each node closes its own transport.
func RunCluster(cfg ClusterConfig, transports []wire.Transport) (*Result, error) {
	nodes, err := NewNodes(cfg, transports)
	if err != nil {
		return nil, err
	}
	return RunNodes(nodes)
}

// NewNodes validates the configuration and constructs — without
// starting — one node per transport, for callers that separate setup
// from the run (timing setup apart, or running the cluster in a
// goroutine); RunNodes then runs them. On error every transport is
// closed.
func NewNodes(cfg ClusterConfig, transports []wire.Transport) ([]*Node, error) {
	if len(transports) != cfg.N {
		return nil, fmt.Errorf("cluster: %d transports for %d nodes", len(transports), cfg.N)
	}
	for _, ps := range [][]float64{cfg.GenP, cfg.ConP} {
		if len(ps) > 1 && len(ps) != cfg.N {
			return nil, fmt.Errorf("cluster: probability slice length %d, need 1 or %d", len(ps), cfg.N)
		}
	}
	if len(cfg.ServePerNode) > 0 && len(cfg.ServePerNode) != cfg.N {
		return nil, fmt.Errorf("cluster: %d serve hooks for %d nodes", len(cfg.ServePerNode), cfg.N)
	}
	if len(cfg.Flight) > 0 && len(cfg.Flight) != cfg.N {
		return nil, fmt.Errorf("cluster: %d flight recorders for %d nodes", len(cfg.Flight), cfg.N)
	}
	if g := cfg.Graph; g != nil {
		if g.N() != cfg.N {
			return nil, fmt.Errorf("cluster: graph has %d vertices, config says %d", g.N(), cfg.N)
		}
		for v := 0; v < cfg.N; v++ {
			if g.Degree(v) == 0 {
				return nil, fmt.Errorf("cluster: node %d has no neighbours to balance with", v)
			}
		}
	}
	if len(cfg.GenP) == 0 {
		cfg.GenP = []float64{0.5}
	}
	if len(cfg.ConP) == 0 {
		cfg.ConP = []float64{0.4}
	}
	nodes := make([]*Node, cfg.N)
	for i := 0; i < cfg.N; i++ {
		var serve *ServeHooks
		if len(cfg.ServePerNode) > 0 {
			serve = cfg.ServePerNode[i]
		}
		var rec *flight.Recorder
		if len(cfg.Flight) > 0 {
			rec = cfg.Flight[i]
		}
		var neighbors []int
		if cfg.Graph != nil {
			neighbors = cfg.Graph.Neighbors(i)
		}
		n, err := New(Config{
			ID: i, N: cfg.N, Delta: cfg.Delta, F: cfg.F, Steps: cfg.Steps,
			GenP: probAt(cfg.GenP, i), ConP: probAt(cfg.ConP, i),
			Seed: cfg.Seed, Neighbors: neighbors, Transport: transports[i],
			Timeout: cfg.Timeout, FreezeTimeout: cfg.FreezeTimeout,
			MinInitGap: cfg.MinInitGap, Pace: cfg.Pace,
			Obs:          cfg.Obs,
			StepInterval: cfg.StepInterval, NoBalance: cfg.NoBalance,
			Stop: cfg.Stop, Serve: serve, Flight: rec,
		})
		if err != nil {
			// Nothing started yet: close all transports and bail.
			for _, tr := range transports {
				tr.Close()
			}
			return nil, err
		}
		nodes[i] = n
	}
	return nodes, nil
}

// RunNodes starts every prepared node and blocks until the cluster has
// retired, assembling the combined Result.
func RunNodes(nodes []*Node) (*Result, error) {
	start := time.Now()
	for _, n := range nodes {
		n.Start()
	}
	res := &Result{Nodes: make([]Stats, len(nodes))}
	var firstErr error
	for i, n := range nodes {
		rep, err := n.Wait()
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("cluster: node %d: %w", i, err)
		}
		if rep != nil {
			res.Nodes[i] = rep.Stats
			if rep.Summary != nil {
				res.Summary = *rep.Summary
			}
		}
	}
	res.Elapsed = time.Since(start)
	if firstErr != nil {
		return nil, firstErr
	}
	return res, nil
}
