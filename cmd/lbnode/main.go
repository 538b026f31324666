// Command lbnode runs the wire-level cluster: nodes that speak the
// balancing protocol over real TCP sockets (or in-memory loopback).
//
// Three modes:
//
//   - Spawn mode launches an n-node cluster in one command, each node
//     on its own loopback-TCP socket (or over the in-memory transport
//     with -transport inproc), and prints the per-node accounting and
//     the conservation check:
//
//     lbnode -spawn 8
//     lbnode -spawn 16 -transport inproc -steps 5000
//
//   - Daemon mode runs a single node of a multi-process (or
//     multi-host) cluster; every process gets the same static peer
//     table and its own id. Node 0 coordinates the shutdown:
//
//     lbnode -id 0 -listen :7100 -peers 0=host0:7100,1=host1:7101,2=host2:7102
//     lbnode -id 1 -listen :7101 -peers 0=host0:7100,1=host1:7101,2=host2:7102
//     lbnode -id 2 -listen :7102 -peers 0=host0:7100,1=host1:7101,2=host2:7102
//
//   - Aggregator mode scrapes the debug endpoints of running nodes and
//     merges them into one cluster-wide view: summed counters, the
//     cluster load distribution and global variation density, and
//     cross-node balancing-operation timelines stitched by op id. One
//     shot by default; with -debug-addr it serves the merged view live:
//
//     lbnode -aggregate http://host0:7200,http://host1:7201
//     lbnode -aggregate http://host0:7200,http://host1:7201 -debug-addr :7300
//
// In spawn and daemon mode -debug-addr serves live debug endpoints
// while the run executes: Prometheus /metrics (per-reason abort
// counters, per-phase protocol latency histograms, the live load
// distribution, wire traffic), expvar-style /debug/vars, the protocol
// event /trace (JSONL, ?op= filters one operation), the time-series
// /series (recorder snapshots every -series-period), /healthz (node
// identity and current protocol epoch), and net/http/pprof:
//
//	lbnode -spawn 16 -debug-addr 127.0.0.1:7200 &
//	curl -s http://127.0.0.1:7200/metrics | grep cluster_aborts_total
//
// Spawn mode with -debug-per-node gives every node its own registry and
// endpoint (ports -debug-addr+i) — the multi-process observability
// shape in one command, ready for -aggregate to scrape.
//
// With -serve-addr the cluster also takes client work over the wire:
// node i listens for job submissions (the wire client codec, see
// internal/serve and cmd/lbload) on port+i of the base address (the
// daemon's single node uses the address as given). Serving clusters
// generate no spontaneous load (-gen is ignored; submissions are the
// only source), usually want -step-interval to give consumption a real
// service rate, -steps high enough to outlast the workload, and stop
// early on SIGINT/SIGTERM with a clean drain of the balancing
// protocol:
//
//	lbnode -spawn 8 -serve-addr 127.0.0.1:7400 -step-interval 200us -steps 100000000
//	lbnode -spawn 8 -serve-addr 127.0.0.1:7400 -step-interval 200us -balance=false  # control arm
//
// The exit status is nonzero if the node (or, in spawn mode, the
// cluster) observed a packet-conservation violation — which would be a
// bug, not a tunable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"lmbalance/internal/cluster"
	"lmbalance/internal/flight"
	"lmbalance/internal/obs"
	"lmbalance/internal/serve"
	"lmbalance/internal/trace"
	"lmbalance/internal/wire"
)

func main() {
	var (
		spawn     = flag.Int("spawn", 0, "spawn an n-node cluster in this process (0 = daemon mode)")
		transport = flag.String("transport", "tcp", "spawn mode: tcp or inproc")
		id        = flag.Int("id", 0, "daemon mode: this node's id")
		listen    = flag.String("listen", "", "daemon mode: listen address, e.g. :7100")
		peers     = flag.String("peers", "", "daemon mode: static peer table, id=host:port comma-separated (must include every node)")
		f         = flag.Float64("f", 1.2, "trigger factor f")
		delta     = flag.Int("delta", 2, "neighborhood size δ")
		steps     = flag.Int("steps", 2000, "workload steps per node")
		gen       = flag.Float64("gen", 0.5, "per-step generate probability")
		con       = flag.Float64("con", 0.4, "per-step consume probability")
		hot       = flag.Int("hot", -1, "first k nodes generate hot (0.9/0.1); -1 = n/4 in spawn mode, 0 in daemon mode")
		seed      = flag.Uint64("seed", 1993, "cluster-wide seed")
		timeout   = flag.Duration("timeout", 0, "initiator reply timeout (0 = default)")
		minGap    = flag.Duration("min-initiate-gap", 0, "minimum interval between a node's own balance initiations (fixed: the whole policy, 0 = off; adaptive: the controller's lower bound)")
		pace      = flag.String("pace", "fixed", "initiation pacing policy: off, fixed (-min-initiate-gap floor), or adaptive (AIMD controller)")
		paceMax   = flag.Duration("pace-max-gap", 0, "adaptive pacing: cap on the dynamic initiation gap (0 = default)")
		paceMult  = flag.Float64("pace-mult", 0, "adaptive pacing: multiplicative gap increase per peer_frozen abort (0 = default)")
		paceDec   = flag.Duration("pace-dec", 0, "adaptive pacing: additive gap decrease per successful collect (0 = default)")
		quiet     = flag.Bool("quiet", false, "suppress the per-node table")
		debugAddr = flag.String("debug-addr", "", "serve live /metrics, /debug/vars, /trace, /series and /debug/pprof on this address during the run (e.g. 127.0.0.1:7200)")
		perNode   = flag.Bool("debug-per-node", false, "spawn mode: per-node registries and debug endpoints on ports debug-addr+i (requires -debug-addr)")
		seriesP   = flag.Duration("series-period", 100*time.Millisecond, "time-series recorder sampling period (with -debug-addr)")
		aggregate = flag.String("aggregate", "", "aggregator mode: comma-separated upstream debug URLs to scrape and merge")
		serveAddr = flag.String("serve-addr", "", "accept client job submissions: spawn mode node i listens on port+i of this base address, daemon mode on the address as given (disables -gen)")
		stepIv    = flag.Duration("step-interval", 0, "wall-clock pacing per workload step (0 = free-running); with -serve-addr this sets the service rate con/interval units/s")
		balance   = flag.Bool("balance", true, "run the balancing protocol (false = control arm: nodes still answer partners but never initiate)")
		slo       = flag.String("slo", "", `run the continuous health monitor against this latency objective, e.g. "p99<20ms over 30s/5m" (requires -debug-addr; serves /health)`)
		monPeriod = flag.Duration("monitor-period", time.Second, "health monitor poll interval (with -slo)")
		scrapeTO  = flag.Duration("scrape-timeout", 0, "per-upstream scrape timeout for the aggregator and health monitor (0 = default 3s)")
		flightDir = flag.String("flight-dir", "", "record every frame and protocol decision into per-node flight-recorder rings under this directory (replay with lbflight); aggregator mode instead snapshots upstream recorders on SLO alerts")
		flightMax = flag.Int64("flight-max-bytes", 0, "per-node flight-recorder ring size in bytes (0 = default 8 MiB)")
	)
	flag.Parse()
	paceMode, err := cluster.ParsePaceMode(*pace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbnode: -pace:", err)
		os.Exit(1)
	}
	o := options{
		spawn: *spawn, transport: *transport, id: *id, listen: *listen, peers: *peers,
		f: *f, delta: *delta, steps: *steps, gen: *gen, con: *con, hot: *hot,
		seed: *seed, timeout: *timeout, minInitGap: *minGap, quiet: *quiet,
		pace: paceMode, paceMaxGap: *paceMax, paceMult: *paceMult, paceDec: *paceDec,
		debugAddr: *debugAddr, debugPerNode: *perNode, seriesPeriod: *seriesP,
		aggregate: *aggregate,
		serveAddr: *serveAddr, stepInterval: *stepIv, noBalance: !*balance,
		slo: *slo, monitorPeriod: *monPeriod, scrapeTimeout: *scrapeTO,
		flightDir: *flightDir, flightMaxBytes: *flightMax,
	}
	conserved, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbnode:", err)
		os.Exit(1)
	}
	if !conserved {
		fmt.Fprintln(os.Stderr, "lbnode: PACKET CONSERVATION VIOLATED")
		os.Exit(1)
	}
}

type options struct {
	spawn          int
	transport      string
	id             int
	listen, peers  string
	f              float64
	delta, steps   int
	gen, con       float64
	hot            int
	seed           uint64
	timeout        time.Duration
	minInitGap     time.Duration
	pace           cluster.PaceMode
	paceMaxGap     time.Duration
	paceMult       float64
	paceDec        time.Duration
	quiet          bool
	debugAddr      string
	debugPerNode   bool
	seriesPeriod   time.Duration
	aggregate      string
	serveAddr      string
	stepInterval   time.Duration
	noBalance      bool
	slo            string
	monitorPeriod  time.Duration
	scrapeTimeout  time.Duration
	flightDir      string
	flightMaxBytes int64

	// stop, when non-nil, ends a serving aggregator as if interrupted
	// (test hook; main leaves it nil and serves until SIGINT/SIGTERM).
	stop <-chan struct{}
}

func run(o options, w io.Writer) (conserved bool, err error) {
	if o.aggregate != "" {
		return runAggregate(o, w)
	}
	if o.spawn > 0 {
		return runSpawn(o, w)
	}
	return runDaemon(o, w)
}

// clampDelta caps δ at n−1 (the whole cluster), matching lbsim: a
// 2-node cluster with the default -delta 2 should just balance pairs.
func clampDelta(delta, n int) int {
	if delta > n-1 {
		return n - 1
	}
	return delta
}

// hotProbs builds the per-node generate/consume vectors: the first
// `hot` nodes are producers (0.9/0.1), the rest use -gen/-con.
func hotProbs(n, hot int, gen, con float64) (gp, cp []float64) {
	gp = make([]float64, n)
	cp = make([]float64, n)
	for i := range gp {
		if i < hot {
			gp[i], cp[i] = 0.9, 0.1
		} else {
			gp[i], cp[i] = gen, con
		}
	}
	return gp, cp
}

// nodeHealth builds the /healthz identity callback for one node: its
// cluster id and live protocol epoch, so a probe learns which node
// answered and whether its protocol state is advancing.
func nodeHealth(nd *cluster.Node) func() map[string]string {
	return func() map[string]string {
		return map[string]string{
			"node":  strconv.Itoa(nd.ID()),
			"epoch": strconv.FormatUint(nd.Epoch(), 10),
		}
	}
}

// healthProxy lets /health mount on a debug server before the monitor
// exists: the monitor scrapes the server's (possibly ephemeral) URL, so
// it can only be created after the server is already listening.
type healthProxy struct{ mon atomic.Pointer[obs.Monitor] }

func (p *healthProxy) handler(w http.ResponseWriter, r *http.Request) {
	m := p.mon.Load()
	if m == nil {
		http.Error(w, "health monitor not running", http.StatusServiceUnavailable)
		return
	}
	m.Handler()(w, r)
}

// openFlight opens one node's flight recorder ring under -flight-dir
// and registers its counters with the node's registry.
func openFlight(o options, node int, reg *obs.Registry) (*flight.Recorder, error) {
	rec, err := flight.Open(flight.Options{
		Dir:      filepath.Join(o.flightDir, fmt.Sprintf("node-%d", node)),
		Node:     node,
		MaxBytes: o.flightMaxBytes,
	})
	if err != nil {
		return nil, fmt.Errorf("-flight-dir node %d: %w", node, err)
	}
	rec.Register(reg)
	return rec, nil
}

// flightSnapHandler serves /flightsnap: seal and copy the given
// recorders' rings into snapshot artifacts and report the paths. The
// health monitor's OnAlert hook and remote aggregators both hit this.
func flightSnapHandler(recs ...*flight.Recorder) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		reason := r.URL.Query().Get("reason")
		if reason == "" {
			reason = "manual"
		}
		type row struct {
			Dir  string `json:"dir"`
			Path string `json:"path,omitempty"`
			Err  string `json:"err,omitempty"`
		}
		rows := make([]row, 0, len(recs))
		status := http.StatusOK
		for _, rec := range recs {
			path, err := rec.Snapshot(reason)
			rw := row{Dir: rec.Dir(), Path: path}
			if err != nil {
				rw.Err = err.Error()
				status = http.StatusInternalServerError
			}
			rows = append(rows, rw)
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.WriteHeader(status)
		_ = json.NewEncoder(w).Encode(rows)
	}
}

// snapshotOnAlert is the monitor hook for nodes with local recorders:
// every clear→firing SLO transition cuts a replayable incident
// artifact under each node's flight dir (flight_snapshots_total counts
// them; failures land in the recorder's error state, not the run).
func snapshotOnAlert(recs []*flight.Recorder) func(obs.HealthDoc) {
	return func(obs.HealthDoc) {
		for _, rec := range recs {
			rec.Snapshot("slo_alert")
		}
	}
}

// snapshotUpstreams is the aggregator's OnAlert hook: the recorders
// live with the nodes, so on an alert it asks every upstream to cut
// its own incident artifact via /flightsnap. Unreachable upstreams are
// skipped — the dead node may be the incident; the others still
// preserve their evidence.
func snapshotUpstreams(urls []string, timeout time.Duration) func(obs.HealthDoc) {
	if timeout <= 0 {
		timeout = obs.DefaultScrapeTimeout
	}
	client := &http.Client{Timeout: timeout}
	return func(obs.HealthDoc) {
		for _, u := range urls {
			resp, err := client.Get(u + "/flightsnap?reason=slo_alert")
			if err != nil {
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
}

// parseSLOFlag validates the -slo flag and its -debug-addr dependency.
func parseSLOFlag(o options) (obs.SLO, bool, error) {
	if o.slo == "" {
		return obs.SLO{}, false, nil
	}
	if o.debugAddr == "" {
		return obs.SLO{}, false, fmt.Errorf("-slo requires -debug-addr (the monitor scrapes the debug endpoints)")
	}
	s, err := obs.ParseSLO(o.slo)
	if err != nil {
		return obs.SLO{}, false, err
	}
	return s, true, nil
}

// perNodeAddr derives node i's address from a base flag value: same
// host, port+i (port 0 stays 0 — every node gets an ephemeral port).
// flagName only labels errors.
func perNodeAddr(flagName, base string, i int) (string, error) {
	host, ps, err := net.SplitHostPort(base)
	if err != nil {
		return "", fmt.Errorf("%s %q: %w", flagName, base, err)
	}
	port, err := strconv.Atoi(ps)
	if err != nil {
		return "", fmt.Errorf("%s %q: port is not numeric: %w", flagName, base, err)
	}
	if port != 0 {
		port += i
	}
	return net.JoinHostPort(host, strconv.Itoa(port)), nil
}

// runSpawn launches a whole cluster in-process and reports it.
func runSpawn(o options, w io.Writer) (bool, error) {
	n := o.spawn
	if n < 2 {
		return false, fmt.Errorf("-spawn %d: need at least 2 nodes", n)
	}
	if o.debugPerNode && o.debugAddr == "" {
		return false, fmt.Errorf("-debug-per-node requires -debug-addr")
	}
	sloObj, wantMon, err := parseSLOFlag(o)
	if err != nil {
		return false, err
	}
	// Registries: one shared (cluster-aggregated) by default, one per
	// node with -debug-per-node — the multi-process shape in one
	// process, each node scrape-able on its own endpoint.
	var shared *obs.Registry
	var regs []*obs.Registry
	if o.debugAddr != "" {
		if o.debugPerNode {
			regs = make([]*obs.Registry, n)
			for i := range regs {
				regs[i] = obs.NewRegistry()
			}
		} else {
			shared = obs.NewRegistry()
		}
	}
	regFor := func(i int) *obs.Registry {
		if regs != nil {
			return regs[i]
		}
		return shared
	}
	if o.transport != "tcp" && o.transport != "inproc" {
		return false, fmt.Errorf("unknown -transport %q (tcp, inproc)", o.transport)
	}
	transports, err := wire.LocalTransports(n, o.transport == "inproc")
	if err != nil {
		return false, err
	}
	for i, tr := range transports {
		// Both local endpoint types publish their counters this way.
		tr.(interface{ Register(*obs.Registry) }).Register(regFor(i))
	}
	hot := o.hot
	if hot < 0 {
		hot = n / 4
	}
	gp, cp := hotProbs(n, hot, o.gen, o.con)
	closeTransports := func() {
		for _, tr := range transports {
			tr.Close()
		}
	}
	// Flight recorders tap the transports before anything else wraps
	// them, so every frame a node sends or receives is on the record.
	var frecs []*flight.Recorder
	closeFlight := func() {
		for _, fr := range frecs {
			fr.Close()
		}
	}
	if o.flightDir != "" {
		frecs = make([]*flight.Recorder, n)
		for i := range transports {
			fr, err := openFlight(o, i, regFor(i))
			if err != nil {
				closeFlight()
				closeTransports()
				return false, err
			}
			frecs[i] = fr
			transports[i] = fr.Tap(transports[i])
		}
	}
	// Client-facing front-ends come up before the nodes so a bound port
	// fails the run early; submissions queue in the servers until the
	// node loops start.
	var (
		servers []*serve.Server
		hooks   []*cluster.ServeHooks
		stop    chan struct{}
	)
	closeServers := func() {
		for _, s := range servers {
			if s != nil {
				s.Close()
			}
		}
	}
	if o.serveAddr != "" {
		for i := range gp {
			gp[i] = 0 // submissions are the only load source
		}
		servers = make([]*serve.Server, n)
		hooks = make([]*cluster.ServeHooks, n)
		for i := range servers {
			addr, err := perNodeAddr("-serve-addr", o.serveAddr, i)
			if err != nil {
				closeServers()
				closeFlight()
				closeTransports()
				return false, err
			}
			srv, err := serve.NewServer(i, addr, regFor(i))
			if err != nil {
				closeServers()
				closeFlight()
				closeTransports()
				return false, err
			}
			servers[i] = srv
			hooks[i] = srv.Hooks()
		}
		stop = make(chan struct{})
	}
	nodes, err := cluster.NewNodes(cluster.ClusterConfig{
		N: n, Delta: clampDelta(o.delta, n), F: o.f, Steps: o.steps,
		GenP: gp, ConP: cp, Seed: o.seed, Timeout: o.timeout,
		MinInitGap: o.minInitGap, Pace: o.pace,
		PaceMaxGap: o.paceMaxGap, PaceMult: o.paceMult, PaceDec: o.paceDec,
		Obs: shared, ObsPerNode: regs,
		StepInterval: o.stepInterval, NoBalance: o.noBalance,
		Stop: stop, ServePerNode: hooks,
		Flight: frecs,
	}, transports)
	if err != nil {
		closeServers()
		closeFlight()
		return false, err
	}
	// Debug servers and recorders come up after the nodes exist (the
	// health callback reports live node state) but before any node
	// starts: a bound port fails the run before cluster work begins.
	var recs []*obs.Recorder
	stopRecs := func() {
		for _, rec := range recs {
			rec.Stop()
		}
	}
	hp := &healthProxy{}
	var debugURLs []string
	if o.debugAddr != "" {
		if o.debugPerNode {
			ids := make([]int, 1)
			for i, nd := range nodes {
				ids[0] = i
				rec := cluster.NewRecorder(regs[i], ids, 0)
				rec.Start(o.seriesPeriod)
				recs = append(recs, rec)
				addr, err := perNodeAddr("-debug-addr", o.debugAddr, i)
				if err != nil {
					stopRecs()
					closeServers()
					closeFlight()
					closeTransports()
					return false, err
				}
				extra := make(map[string]http.HandlerFunc)
				if wantMon {
					extra["/health"] = hp.handler
				}
				if frecs != nil {
					extra["/flightsnap"] = flightSnapHandler(frecs[i])
				}
				if servers != nil {
					extra["/jobs"] = serve.JourneysHandler(servers[i].Journeys())
				}
				srv, err := obs.ServeDebugOpts(addr, regs[i], obs.DebugOptions{Health: nodeHealth(nd), Extra: extra})
				if err != nil {
					stopRecs()
					closeServers()
					closeFlight()
					closeTransports()
					return false, fmt.Errorf("node %d: %w", i, err)
				}
				defer srv.Close()
				debugURLs = append(debugURLs, srv.URL())
				fmt.Fprintf(w, "node %d debug endpoints at %s: /metrics /series /trace /healthz\n", i, srv.URL())
			}
		} else {
			ids := make([]int, n)
			for i := range ids {
				ids[i] = i
			}
			rec := cluster.NewRecorder(shared, ids, 0)
			rec.Start(o.seriesPeriod)
			recs = append(recs, rec)
			extra := make(map[string]http.HandlerFunc)
			if wantMon {
				extra["/health"] = hp.handler
			}
			if frecs != nil {
				extra["/flightsnap"] = flightSnapHandler(frecs...)
			}
			if servers != nil {
				logs := make([]*serve.JourneyLog, len(servers))
				for i, s := range servers {
					logs[i] = s.Journeys()
				}
				extra["/jobs"] = serve.JourneysHandler(logs...)
			}
			srv, err := obs.ServeDebugOpts(o.debugAddr, shared, obs.DebugOptions{
				Health: func() map[string]string {
					return map[string]string{"mode": "spawn", "nodes": strconv.Itoa(n)}
				},
				Extra: extra,
			})
			if err != nil {
				stopRecs()
				closeServers()
				closeFlight()
				closeTransports()
				return false, err
			}
			defer srv.Close()
			debugURLs = append(debugURLs, srv.URL())
			fmt.Fprintf(w, "debug endpoints at %s: /metrics /debug/vars /trace /series /debug/pprof/\n", srv.URL())
		}
	}
	if wantMon {
		cfg := obs.MonitorConfig{
			URLs: debugURLs, SLO: sloObj,
			Period: o.monitorPeriod, Timeout: o.scrapeTimeout,
			Tracer: regFor(0).Tracer(), Obs: regFor(0),
		}
		if frecs != nil {
			cfg.OnAlert = snapshotOnAlert(frecs)
		}
		mon := obs.NewMonitor(cfg)
		hp.mon.Store(mon)
		mon.Start()
		defer mon.Stop()
		fmt.Fprintf(w, "health monitor: %s (poll %v, /health on the debug endpoints)\n", sloObj, o.monitorPeriod)
	}
	if o.serveAddr != "" {
		for i, s := range servers {
			fmt.Fprintf(w, "node %d serving clients at %s\n", i, s.Addr())
		}
		// SIGINT/SIGTERM (or the test hook) ends the run early with a
		// clean drain through the balancing shutdown.
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		sigDone := make(chan struct{})
		go func() {
			defer signal.Stop(sig)
			select {
			case <-sig:
				close(stop)
			case <-o.stop:
				close(stop)
			case <-sigDone:
			}
		}()
		defer close(sigDone)
	}
	res, err := cluster.RunNodes(nodes)
	stopRecs()
	closeServers()
	if err != nil {
		closeFlight()
		return false, err
	}
	if frecs != nil {
		var fRecords, fDropped int64
		for i, fr := range frecs {
			fRecords += fr.Records()
			fDropped += fr.Dropped()
			if cerr := fr.Close(); cerr != nil {
				return false, fmt.Errorf("flight recorder node %d: %w", i, cerr)
			}
		}
		fmt.Fprintf(w, "flight recording: %d records (%d dropped) under %s — replay with lbflight\n",
			fRecords, fDropped, o.flightDir)
	}
	if !o.quiet {
		tb := trace.NewTable(fmt.Sprintf("%d-node cluster over %s (f=%g δ=%d, %d steps)",
			n, o.transport, o.f, o.delta, o.steps),
			"node", "final load", "generated", "consumed", "completed", "partners", "aborted", "timeouts", "bytes sent")
		for _, nd := range res.Nodes {
			tb.AddRow(nd.ID, nd.FinalLoad, nd.Generated, nd.Consumed,
				nd.Completed, nd.Partners, nd.Aborted, nd.Timeouts, nd.BytesSent)
		}
		if err := tb.WriteText(w); err != nil {
			return false, err
		}
	}
	ok := res.Conserved() && res.Summary.Conserved()
	if o.serveAddr != "" {
		ok = ok && res.JobsConserved()
		fmt.Fprintf(w, "serving: ingested %d units  completed %d  records held %d  job conservation: %s\n",
			res.Ingested(), res.UnitsDone(), res.RecordsHeld(), okString(res.JobsConserved()))
	}
	fmt.Fprintf(w, "total load %d  spread %d  ops %d  messages %d  wire bytes %d  elapsed %v\n",
		res.TotalLoad(), res.Spread(), res.Completed(), res.Messages(), res.Bytes(), res.Elapsed.Round(time.Millisecond))
	if o.pace == cluster.PaceAdaptive || o.minInitGap > 0 {
		episodes, steps := res.RateLimited()
		var backoffs, recovers int64
		for _, nd := range res.Nodes {
			backoffs += nd.PaceBackoffs
			recovers += nd.PaceRecovers
		}
		fmt.Fprintf(w, "initiation pacing: %s  deferral episodes %d (%d trigger firings)  backoffs %d  recoveries %d  mean final gap %v\n",
			o.pace, episodes, steps, backoffs, recovers, res.MeanPaceGap().Round(time.Microsecond))
	}
	fmt.Fprintf(w, "conservation: %s (generated %d − consumed %d = held %d)\n",
		okString(ok), res.Summary.Generated, res.Summary.Consumed, res.Summary.TotalLoad)
	return ok, nil
}

// runDaemon runs one node of a distributed cluster.
func runDaemon(o options, w io.Writer) (bool, error) {
	table, err := parsePeers(o.peers)
	if err != nil {
		return false, err
	}
	n := len(table)
	if n < 2 {
		return false, fmt.Errorf("-peers lists %d nodes, need at least 2", n)
	}
	if _, ok := table[o.id]; !ok {
		return false, fmt.Errorf("-id %d is not in the peer table", o.id)
	}
	listen := o.listen
	if listen == "" {
		listen = table[o.id]
	}
	peers := make(map[int]string, n-1)
	for pid, addr := range table {
		if pid != o.id {
			peers[pid] = addr
		}
	}
	var reg *obs.Registry
	if o.debugAddr != "" {
		reg = obs.NewRegistry()
	}
	tp, err := wire.ListenTCP(o.id, listen, peers)
	if err != nil {
		return false, err
	}
	tp.Register(reg)
	var transport wire.Transport = tp
	var frec *flight.Recorder
	if o.flightDir != "" {
		frec, err = openFlight(o, o.id, reg)
		if err != nil {
			tp.Close()
			return false, err
		}
		transport = frec.Tap(tp)
	}
	hot := o.hot
	if hot < 0 {
		hot = 0
	}
	genP, conP := o.gen, o.con
	if o.id < hot {
		genP, conP = 0.9, 0.1
	}
	var (
		server *serve.Server
		hooks  *cluster.ServeHooks
		stop   chan struct{}
	)
	if o.serveAddr != "" {
		genP = 0 // submissions are the only load source
		server, err = serve.NewServer(o.id, o.serveAddr, reg)
		if err != nil {
			frec.Close()
			tp.Close()
			return false, err
		}
		hooks = server.Hooks()
		stop = make(chan struct{})
		defer server.Close()
	}
	nd, err := cluster.New(cluster.Config{
		ID: o.id, N: n, Delta: clampDelta(o.delta, n), F: o.f, Steps: o.steps,
		GenP: genP, ConP: conP, Seed: o.seed, Transport: transport, Timeout: o.timeout,
		MinInitGap: o.minInitGap, Pace: o.pace,
		PaceMaxGap: o.paceMaxGap, PaceMult: o.paceMult, PaceDec: o.paceDec,
		Obs:          reg,
		StepInterval: o.stepInterval, NoBalance: o.noBalance,
		Stop: stop, Serve: hooks,
		Flight: frec,
	})
	if err != nil {
		frec.Close()
		tp.Close()
		return false, err
	}
	sloObj, wantMon, err := parseSLOFlag(o)
	if err != nil {
		frec.Close()
		tp.Close()
		return false, err
	}
	if o.debugAddr != "" {
		rec := cluster.NewRecorder(reg, []int{o.id}, 0)
		rec.Start(o.seriesPeriod)
		defer rec.Stop()
		hp := &healthProxy{}
		extra := make(map[string]http.HandlerFunc)
		if wantMon {
			extra["/health"] = hp.handler
		}
		if frec != nil {
			extra["/flightsnap"] = flightSnapHandler(frec)
		}
		if server != nil {
			extra["/jobs"] = serve.JourneysHandler(server.Journeys())
		}
		// Fail fast, naming the node: a daemon that silently ran without
		// its endpoints would be invisible to the aggregator.
		srv, err := obs.ServeDebugOpts(o.debugAddr, reg, obs.DebugOptions{Health: nodeHealth(nd), Extra: extra})
		if err != nil {
			frec.Close()
			tp.Close()
			return false, fmt.Errorf("node %d: %w", o.id, err)
		}
		defer srv.Close()
		fmt.Fprintf(w, "debug endpoints at %s: /metrics /debug/vars /trace /series /debug/pprof/\n", srv.URL())
		if wantMon {
			cfg := obs.MonitorConfig{
				URLs: []string{srv.URL()}, SLO: sloObj,
				Period: o.monitorPeriod, Timeout: o.scrapeTimeout,
				Tracer: reg.Tracer(), Obs: reg,
			}
			if frec != nil {
				cfg.OnAlert = snapshotOnAlert([]*flight.Recorder{frec})
			}
			mon := obs.NewMonitor(cfg)
			hp.mon.Store(mon)
			mon.Start()
			defer mon.Stop()
			fmt.Fprintf(w, "health monitor: %s (poll %v, /health)\n", sloObj, o.monitorPeriod)
		}
	}
	fmt.Fprintf(w, "lbnode %d/%d listening on %v, peers %v\n", o.id, n, tp.Addr(), o.peers)
	if server != nil {
		fmt.Fprintf(w, "node %d serving clients at %s\n", o.id, server.Addr())
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		sigDone := make(chan struct{})
		go func() {
			defer signal.Stop(sig)
			select {
			case <-sig:
				close(stop)
			case <-o.stop:
				close(stop)
			case <-sigDone:
			}
		}()
		defer close(sigDone)
	}
	nd.Start()
	rep, err := nd.Wait()
	if err != nil {
		frec.Close()
		return false, err
	}
	if frec != nil {
		records, dropped := frec.Records(), frec.Dropped()
		if cerr := frec.Close(); cerr != nil {
			return false, fmt.Errorf("flight recorder: %w", cerr)
		}
		fmt.Fprintf(w, "flight recording: %d records (%d dropped) under %s — replay with lbflight\n",
			records, dropped, o.flightDir)
	}
	s := rep.Stats
	fmt.Fprintf(w, "node %d done: load %d  generated %d  consumed %d  completed %d  aborted %d  sent %dB  recv %dB\n",
		s.ID, s.FinalLoad, s.Generated, s.Consumed, s.Completed, s.Aborted, s.BytesSent, s.BytesRecv)
	if server != nil {
		fmt.Fprintf(w, "node %d serving: ingested %d units  done for this origin %d  records held %d\n",
			s.ID, s.Ingested, s.UnitsDone, s.RecordsHeld)
	}
	if rep.Summary == nil {
		return true, nil // only the coordinator can check the cluster
	}
	ok := rep.Summary.Conserved()
	fmt.Fprintf(w, "cluster conservation: %s (%d nodes, generated %d − consumed %d = held %d)\n",
		okString(ok), rep.Summary.Nodes, rep.Summary.Generated, rep.Summary.Consumed, rep.Summary.TotalLoad)
	return ok, nil
}

// runAggregate scrapes the upstream debug endpoints and reports the
// merged cluster view. With -debug-addr it serves the merged view live
// (every request re-scrapes) until interrupted; otherwise it is a one
// shot: scrape, print, exit.
func runAggregate(o options, w io.Writer) (bool, error) {
	var urls []string
	for _, u := range strings.Split(o.aggregate, ",") {
		u = strings.TrimSpace(u)
		if u == "" {
			continue
		}
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		urls = append(urls, strings.TrimRight(u, "/"))
	}
	if len(urls) == 0 {
		return false, fmt.Errorf("-aggregate lists no upstream URLs")
	}
	sloObj, wantMon, err := parseSLOFlag(o)
	if err != nil {
		return false, err
	}
	if o.debugAddr != "" {
		aggOpts := obs.AggOptions{Timeout: o.scrapeTimeout}
		if wantMon {
			cfg := obs.MonitorConfig{
				URLs: urls, SLO: sloObj,
				Period: o.monitorPeriod, Timeout: o.scrapeTimeout,
			}
			if o.flightDir != "" {
				// The recorders live with the nodes; on an alert ask every
				// upstream to seal its own incident artifact.
				cfg.OnAlert = snapshotUpstreams(urls, o.scrapeTimeout)
			}
			mon := obs.NewMonitor(cfg)
			mon.Start()
			defer mon.Stop()
			aggOpts.Extra = map[string]http.HandlerFunc{"/health": mon.Handler()}
			fmt.Fprintf(w, "health monitor: %s (poll %v, /health)\n", sloObj, o.monitorPeriod)
		}
		srv, err := obs.ServeAggregatorOpts(o.debugAddr, urls, aggOpts)
		if err != nil {
			return false, err
		}
		defer srv.Close()
		fmt.Fprintf(w, "aggregator endpoints at %s: /cluster /metrics /series /trace /healthz (%d upstreams)\n",
			srv.URL(), len(urls))
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sig)
		select {
		case <-sig:
		case <-o.stop:
		}
		return true, nil
	}
	v, err := obs.AggregateOpts(urls, obs.AggOptions{Timeout: o.scrapeTimeout})
	if err != nil {
		return false, err
	}
	tb := trace.NewTable(fmt.Sprintf("aggregated cluster view (%d upstreams)", len(urls)),
		"upstream", "status")
	for i := range v.Nodes {
		status := "ok"
		if v.Nodes[i].Err != nil {
			status = v.Nodes[i].Err.Error()
		}
		tb.AddRow(v.Nodes[i].URL, status)
	}
	if err := tb.WriteText(w); err != nil {
		return false, err
	}
	dn, mean, std, vd := v.Dist(obs.LoadGaugeBase)
	fmt.Fprintf(w, "cluster load: %d nodes  mean %.2f  std %.2f  VD %.3f\n", dn, mean, std, vd)
	fmt.Fprintf(w, "stitched operations: %d\n", len(v.Ops))
	// Conservation, re-derived from the scrapes alone. Mid-run the
	// totals legitimately differ by the load in flight, so the check is
	// reported, not enforced.
	sumBase := func(base string) (sum float64, series int) {
		for name, val := range v.Metrics {
			if strings.HasPrefix(name, base+"{") {
				sum += val
				series++
			}
		}
		return sum, series
	}
	loads, _ := sumBase("cluster_node_load")
	gens, nGen := sumBase("cluster_node_generated_total")
	cons, nCon := sumBase("cluster_node_consumed_total")
	if nGen > 0 && nCon > 0 {
		if diff := gens - cons - loads; diff == 0 {
			fmt.Fprintf(w, "conservation: EXACT (generated %.0f − consumed %.0f = held %.0f)\n", gens, cons, loads)
		} else {
			fmt.Fprintf(w, "conservation: %.0f in flight (generated %.0f − consumed %.0f vs held %.0f)\n",
				diff, gens, cons, loads)
		}
	}
	return true, nil
}

// parsePeers parses "0=host:port,1=host:port,..." into an id→addr
// table and checks it is dense: ids 0..n-1, no gaps, no duplicates.
func parsePeers(s string) (map[int]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("-peers is required in daemon mode (or use -spawn)")
	}
	table := make(map[int]string)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		id, addr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("peer entry %q is not id=host:port", part)
		}
		pid, err := strconv.Atoi(strings.TrimSpace(id))
		if err != nil {
			return nil, fmt.Errorf("peer entry %q: bad id: %v", part, err)
		}
		if _, dup := table[pid]; dup {
			return nil, fmt.Errorf("peer id %d listed twice", pid)
		}
		addr = strings.TrimSpace(addr)
		if addr == "" {
			return nil, fmt.Errorf("peer entry %q has an empty address", part)
		}
		table[pid] = addr
	}
	ids := make([]int, 0, len(table))
	for pid := range table {
		ids = append(ids, pid)
	}
	sort.Ints(ids)
	for i, pid := range ids {
		if pid != i {
			return nil, fmt.Errorf("peer ids must be dense 0..%d, got %v", len(table)-1, ids)
		}
	}
	return table, nil
}

func okString(ok bool) string {
	if ok {
		return "EXACT"
	}
	return "VIOLATED"
}
