// Package lmbalance is a Go implementation of the dynamic distributed
// load balancing algorithm of Lüling and Monien (SPAA 1993), "A Dynamic
// Distributed Load Balancing Algorithm with Provable Good Performance",
// together with the simulator, theory and experiment harness that
// reproduce the paper's analysis and evaluation.
//
// The package is a thin facade over the implementation packages:
//
//   - System (internal/core) — the packet-level algorithm with virtual
//     load classes and borrowing, driven step-by-step.
//   - Simulate (internal/sim) — the discrete-time experiment engine.
//   - RunNetwork (internal/netsim) — the message-passing realization:
//     cluster nodes on a virtual clock, with fault injection.
//   - StartNode, NewLoopback, ListenNode (internal/cluster,
//     internal/wire) — the same node over real transports.
//   - Registry, ServeDebug, Aggregate (internal/obs) — live metrics
//     and the merged cluster view.
//   - FIX, FixLimit, OperatorG… (internal/theory) — the closed forms.
//
// # Quick start
//
//	sys, _ := lmbalance.NewSystem(8, lmbalance.DefaultParams(), 42)
//	for i := 0; i < 800; i++ {
//		sys.Generate(0) // the factor-f trigger spreads the load
//	}
//	fmt.Println(sys.TotalLoad(), sys.Load(0), sys.Load(4))
//
// See examples/ for runnable programs and cmd/paperfigs for the full
// reproduction of the paper's tables and figures.
package lmbalance

import (
	"lmbalance/internal/cluster"
	"lmbalance/internal/core"
	"lmbalance/internal/netsim"
	"lmbalance/internal/obs"
	"lmbalance/internal/rng"
	"lmbalance/internal/sim"
	"lmbalance/internal/theory"
	"lmbalance/internal/topology"
	"lmbalance/internal/wire"
	"lmbalance/internal/workload"
)

// Params are the algorithm's tunables: trigger factor F, neighborhood size
// Delta, borrow capacity C. See core.Params for the full documentation.
type Params = core.Params

// Metrics are the activity counters of a System, including the four
// Table-1 statistics.
type Metrics = core.Metrics

// System is the packet-level algorithm state for n processors.
type System = core.System

// DefaultParams returns the paper's Table 1 configuration
// (f=1.1, δ=1, C=4).
func DefaultParams() Params { return core.DefaultParams() }

// NewSystem creates a System with the paper's uniform random candidate
// selection, seeded deterministically.
func NewSystem(n int, p Params, seed uint64) (*System, error) {
	return core.NewSystem(n, p, topology.NewGlobal(n), rng.New(seed))
}

// NetworkConfig configures the share-nothing, message-passing simulation
// (one cluster node per processor, the same node NodeConfig runs,
// balancing via a freeze/ack/transfer exchange through a simulated
// network on a virtual clock; the same config always gives the same
// result).
type NetworkConfig = netsim.Config

// NetworkResult is the outcome of a message-passing run: each node's
// NodeStats, the coordinator's summary, and the fault layer's account.
type NetworkResult = netsim.Result

// RunNetwork executes the message-passing simulation and blocks until the
// nodes' shutdown has retired them all.
func RunNetwork(cfg NetworkConfig) (*NetworkResult, error) { return netsim.Run(cfg) }

// NodeConfig configures one node of the wire-level cluster runtime
// (internal/cluster): the balancing protocol over a real Transport,
// with node 0 coordinating the two-phase quiescent shutdown.
type NodeConfig = cluster.Config

// ClusterNode is a running wire-level cluster node.
type ClusterNode = cluster.Node

// NodeReport is the outcome of one node's run; the coordinator's
// includes the cluster-wide conservation summary.
type NodeReport = cluster.Report

// NodeStats is one cluster node's activity summary, including wire
// bytes sent and received.
type NodeStats = cluster.Stats

// Transport moves protocol messages between cluster nodes. The package
// ships an in-memory loopback (NewLoopback) and TCP (ListenNode);
// embedders may provide their own.
type Transport = wire.Transport

// WireMsg is one protocol message as carried by a Transport.
type WireMsg = wire.Msg

// LoopbackNet is the in-memory Transport fabric for in-process
// clusters; every message still round-trips the wire codec.
type LoopbackNet = wire.LoopbackNet

// NewLoopback builds an n-endpoint in-memory network; endpoint i is
// node i's Transport.
func NewLoopback(n int) *LoopbackNet { return wire.NewLoopback(n) }

// ListenNode opens node id's TCP transport listening on addr, with
// peers mapping every other node id to its dialable address.
func ListenNode(id int, addr string, peers map[int]string) (Transport, error) {
	return wire.ListenTCP(id, addr, peers)
}

// StartNode launches a wire-level cluster node; Wait on the returned
// node blocks until the cluster's quiescent shutdown retires it.
func StartNode(cfg NodeConfig) (*ClusterNode, error) {
	n, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	n.Start()
	return n, nil
}

// Registry collects live metrics (atomic counters, gauges, fixed-bucket
// histograms). A nil *Registry is a valid
// no-op sink: instrumented components accept one in their configs
// (NodeConfig.Obs, NetworkConfig.Obs) and pay
// ~1 ns per disabled metric operation.
type Registry = obs.Registry

// DebugServer serves a Registry over HTTP: /metrics (Prometheus text),
// /debug/vars (expvar JSON), /series (time-series rings), /healthz, and
// net/http/pprof under /debug/pprof/.
type DebugServer = obs.DebugServer

// NewRegistry creates an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// ServeDebug starts a debug HTTP server for reg on addr (host:0 picks a
// free port; see DebugServer.URL). Close releases the listener.
func ServeDebug(addr string, reg *Registry) (*DebugServer, error) {
	return obs.ServeDebug(addr, reg)
}

// AggView is a merged cluster view: metrics summed across nodes, the
// per-node load distribution and the merged load trajectory.
type AggView = obs.AggView

// Aggregate scrapes the debug endpoints (/metrics, /series) of
// every URL in parallel and merges them into one cluster view.
func Aggregate(urls []string) (*AggView, error) { return obs.Aggregate(urls) }

// ServeAggregator serves a live merged view of the upstream debug
// endpoints (/cluster, /metrics, /series, /healthz), scraping
// the upstreams on every request.
func ServeAggregator(addr string, urls []string) (*DebugServer, error) {
	return obs.ServeAggregator(addr, urls)
}

// SimConfig configures a discrete-time simulation (see internal/sim).
type SimConfig = sim.Config

// SimResult aggregates simulation observables over runs.
type SimResult = sim.Result

// Simulate runs a simulation configuration.
func Simulate(cfg SimConfig) (*SimResult, error) { return sim.Run(cfg) }

// SimulatePaper runs the paper's §7 benchmark (64 processors, 500 steps,
// random phase workload) with the given parameters, runs and seed.
func SimulatePaper(params Params, runs int, seed uint64) (*SimResult, error) {
	phases := func(_ int, r *rng.RNG) (workload.Pattern, error) {
		return workload.NewPhases(64, workload.PaperBounds(), r)
	}
	return sim.Run(sim.LMConfig(64, 500, runs, params, phases, seed))
}

// FIX returns the Theorem 1 fixed-point bound FIX(n, δ, f) on the
// expected-load ratio between the generating processor and any other.
func FIX(n, delta int, f float64) float64 { return theory.FIX(n, delta, f) }

// FixLimit returns the network-size-independent Theorem 2 bound
// δ/(δ+1−f).
func FixLimit(delta int, f float64) float64 { return theory.FixLimit(delta, f) }

// OperatorG applies the §3 increase operator G once to ratio k.
func OperatorG(n, delta int, f, k float64) float64 { return theory.G(n, delta, f, k) }

// OperatorC applies the §3 decrease operator C once to ratio k.
func OperatorC(n, delta int, f, k float64) float64 { return theory.C(n, delta, f, k) }

// Theorem4Bound returns the full-model guarantee factor f²·δ/(δ+1−f) of
// Theorem 4.
func Theorem4Bound(delta int, f float64) float64 { return theory.Theorem4Bound(delta, f) }
