// Command lbnode runs the wire-level cluster: nodes that speak the
// balancing protocol over real TCP sockets (or in-memory loopback).
// A node is assembled in one place (buildNode); the modes differ only in
// how many nodes one process runs.
//
//	lbnode -id 0 -peers 0=host0:7100,1=host1:7101  # daemon: one node; node 0 coordinates
//	lbnode -spawn 8                                # spawn: n daemons in one process
//	lbnode -spawn 16 -transport inproc -steps 5000
//	lbnode -aggregate host0:7200,host1:7201        # merge running nodes' debug endpoints
//
// -debug-addr serves /metrics, /debug/vars, /series, /healthz
// and pprof during the run (spawn mode: one endpoint for the cluster,
// or one per node on port+i with -debug-per-node; an aggregator serves
// its merged view there). -serve-addr takes client job submissions
// (spawn mode: node i on port+i), which are then the only load source;
// SIGINT/SIGTERM ends a serving run with a clean drain of the protocol.
// -slo runs the health monitor, -flight-dir the flight recorder (the one
// record of each operation's cross-node timeline: lbflight -op).
//
// The exit status is nonzero if the node (or, in spawn mode, the
// cluster) observed a packet-conservation violation — a bug, not a
// tunable.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
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
	var o options
	var pace string
	var balance bool
	flag.IntVar(&o.spawn, "spawn", 0, "spawn an n-node cluster in this process (0 = daemon mode)")
	flag.StringVar(&o.transport, "transport", "tcp", "spawn mode: tcp or inproc")
	flag.IntVar(&o.id, "id", 0, "daemon mode: this node's id")
	flag.StringVar(&o.listen, "listen", "", "daemon mode: listen address, e.g. :7100")
	flag.StringVar(&o.peers, "peers", "", "daemon mode: static peer table, id=host:port comma-separated (must include every node)")
	flag.Float64Var(&o.f, "f", 1.2, "trigger factor f")
	flag.IntVar(&o.delta, "delta", 2, "neighborhood size δ")
	flag.IntVar(&o.steps, "steps", 2000, "workload steps per node")
	flag.Float64Var(&o.gen, "gen", 0.5, "per-step generate probability")
	flag.Float64Var(&o.con, "con", 0.4, "per-step consume probability")
	flag.IntVar(&o.hot, "hot", -1, "first k nodes generate hot (0.9/0.1); -1 = n/4 in spawn mode, 0 in daemon mode")
	flag.Uint64Var(&o.seed, "seed", 1993, "cluster-wide seed")
	flag.DurationVar(&o.timeout, "timeout", 0, "initiator reply timeout (0 = default)")
	flag.DurationVar(&o.minInitGap, "min-initiate-gap", 0, "minimum interval between a node's own balance initiations under -pace fixed (0 = off)")
	flag.StringVar(&pace, "pace", "fixed", "initiation pacing policy: off, or fixed (the -min-initiate-gap floor)")
	flag.BoolVar(&o.quiet, "quiet", false, "suppress the per-node table")
	flag.StringVar(&o.debugAddr, "debug-addr", "", "serve live /metrics, /debug/vars, /series and /debug/pprof on this address during the run (e.g. 127.0.0.1:7200)")
	flag.BoolVar(&o.debugPerNode, "debug-per-node", false, "spawn mode: per-node registries and debug endpoints on ports debug-addr+i (requires -debug-addr)")
	flag.DurationVar(&o.seriesPeriod, "series-period", 100*time.Millisecond, "time-series recorder sampling period (with -debug-addr)")
	flag.StringVar(&o.aggregate, "aggregate", "", "aggregator mode: comma-separated upstream debug URLs to scrape and merge")
	flag.StringVar(&o.serveAddr, "serve-addr", "", "accept client job submissions: spawn mode node i listens on port+i of this base address, daemon mode on the address as given (disables -gen)")
	flag.DurationVar(&o.stepInterval, "step-interval", 0, "wall-clock pacing per workload step (0 = free-running); with -serve-addr this sets the service rate con/interval units/s")
	flag.BoolVar(&balance, "balance", true, "run the balancing protocol (false = control arm: nodes still answer partners but never initiate)")
	flag.StringVar(&o.slo, "slo", "", `run the continuous health monitor against this latency objective, e.g. "p99<20ms over 30s/5m" (requires -debug-addr; serves /health)`)
	flag.DurationVar(&o.monitorPeriod, "monitor-period", time.Second, "health monitor poll interval (with -slo)")
	flag.DurationVar(&o.scrapeTimeout, "scrape-timeout", 0, "per-upstream scrape timeout for the aggregator and health monitor (0 = default 3s)")
	flag.StringVar(&o.flightDir, "flight-dir", "", "record every frame and protocol decision into per-node flight-recorder rings under this directory (replay with lbflight); aggregator mode instead snapshots upstream recorders on SLO alerts")
	flag.Int64Var(&o.flightMaxBytes, "flight-max-bytes", 0, "per-node flight-recorder ring size in bytes (0 = default 8 MiB)")
	flag.Parse()
	var err error
	if o.pace, err = cluster.ParsePaceMode(pace); err != nil {
		fmt.Fprintln(os.Stderr, "lbnode: -pace:", err)
		os.Exit(1)
	}
	o.noBalance = !balance
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

// options holds the flags (see main for what each one means).
type options struct {
	spawn, id, delta, steps, hot int
	transport, listen, peers     string
	f, gen, con                  float64
	seed                         uint64
	quiet, noBalance             bool

	timeout, minInitGap, stepInterval time.Duration
	pace                              cluster.PaceMode

	debugAddr, aggregate, serveAddr, slo, flightDir string
	debugPerNode                                    bool
	seriesPeriod, monitorPeriod, scrapeTimeout      time.Duration
	flightMaxBytes                                  int64

	// stop, when non-nil, ends a serving run as if interrupted (test
	// hook; main leaves it nil and serves until SIGINT/SIGTERM).
	stop <-chan struct{}
}

// run dispatches on the mode. Whatever a mode opens, it pushes the
// matching closer on td at once; td runs on every exit path, and a
// closer's failure (a flight segment that would not seal) fails the run.
func run(o options, w io.Writer) (conserved bool, err error) {
	var td teardown
	defer func() {
		if terr := td.run(); err == nil {
			err = terr
		}
	}()
	switch {
	case o.aggregate != "":
		return runAggregate(o, w, &td)
	case o.spawn > 0:
		return runSpawn(o, w, &td)
	}
	return runDaemon(o, w, &td)
}

// teardown is a LIFO stack of closers.
type teardown []func() error

func (t *teardown) push(f func() error) { *t = append(*t, f) }

// do pushes a closer that cannot fail.
func (t *teardown) do(f func()) { t.push(func() error { f(); return nil }) }

// run calls every closer, last pushed first — including the ones after
// a failure — and returns the first error.
func (t *teardown) run() error {
	var first error
	for i := len(*t) - 1; i >= 0; i-- {
		if err := (*t)[i](); err != nil && first == nil {
			first = err
		}
	}
	*t = nil
	return first
}

// interrupt returns a channel closed on SIGINT/SIGTERM or when o.stop
// closes: serving nodes drain through the balancing shutdown on it, a
// serving aggregator returns.
func interrupt(o options, td *teardown) <-chan struct{} {
	stop, done := make(chan struct{}), make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		defer signal.Stop(sig)
		select {
		case <-sig:
		case <-o.stop:
		case <-done:
			return
		}
		close(stop)
	}()
	td.do(func() { close(done) })
	return stop
}

// daemon is one assembled node and the pieces around it.
type daemon struct {
	node   *cluster.Node
	reg    *obs.Registry
	rec    *flight.Recorder // nil without -flight-dir
	server *serve.Server    // nil without -serve-addr
}

// buildNode assembles node id of an n-node cluster over tr: it registers
// the transport, opens the flight recorder and taps the transport with
// it (so every frame the node sends is on the record), starts the
// front-end server on serveAddr if set (forcing gen = 0: submissions are
// then the only load source) and builds the node. The first hot nodes
// generate hot (0.9/0.1).
func buildNode(o options, id, n, hot int, tr wire.Transport, reg *obs.Registry, serveAddr string, stop <-chan struct{}, td *teardown) (*daemon, error) {
	d := &daemon{reg: reg}
	// Both local endpoint types and the TCP transport publish this way.
	tr.(interface{ Register(*obs.Registry) }).Register(reg)
	if o.flightDir != "" {
		rec, err := flight.Open(flight.Options{
			Dir: filepath.Join(o.flightDir, fmt.Sprintf("node-%d", id)), Node: id, MaxBytes: o.flightMaxBytes,
		})
		if err != nil {
			return nil, fmt.Errorf("-flight-dir node %d: %w", id, err)
		}
		td.push(func() error {
			if err := rec.Close(); err != nil {
				return fmt.Errorf("flight recorder node %d: %w", id, err)
			}
			return nil
		})
		rec.Register(reg)
		d.rec = rec
	}
	// δ is clamped to n−1 like lbsim: a 2-node cluster with the default
	// -delta 2 should just balance pairs.
	cfg := cluster.Config{
		ID: id, N: n, Delta: min(o.delta, n-1), F: o.f, Steps: o.steps,
		GenP: o.gen, ConP: o.con, Seed: o.seed, Transport: d.rec.Tap(tr), Timeout: o.timeout,
		MinInitGap: o.minInitGap, Pace: o.pace,
		Obs: reg, StepInterval: o.stepInterval, NoBalance: o.noBalance,
		Stop: stop, Flight: d.rec,
	}
	if id < hot {
		cfg.GenP, cfg.ConP = 0.9, 0.1
	}
	if serveAddr != "" {
		srv, err := serve.NewServer(id, serveAddr, reg)
		if err != nil {
			return nil, err
		}
		td.push(srv.Close)
		d.server, cfg.Serve, cfg.GenP = srv, srv.Hooks(), 0
	}
	var err error
	d.node, err = cluster.New(cfg)
	return d, err
}

// assemble builds the daemons this process runs — trs[i] carries node
// first+i of n — mounts their debug endpoints and monitor, and prints
// banner and the front-end addresses. With several local nodes, node i
// serves on port+i of -serve-addr, and they share one registry unless
// -debug-per-node.
func assemble(o options, w io.Writer, n, first, hot int, trs []wire.Transport, banner string, td *teardown) ([]*daemon, error) {
	slo, err := parseSLOFlag(o)
	if err != nil {
		return nil, err
	}
	var stop <-chan struct{}
	if o.serveAddr != "" {
		stop = interrupt(o, td)
	}
	perNode := o.debugPerNode || len(trs) == 1
	var reg *obs.Registry
	ds := make([]*daemon, len(trs))
	for i, tr := range trs {
		if o.debugAddr != "" && (reg == nil || perNode) {
			reg = obs.NewRegistry()
		}
		addr := o.serveAddr
		if addr != "" && len(trs) > 1 {
			if addr, err = perNodeAddr("-serve-addr", addr, i); err != nil {
				return nil, err
			}
		}
		if ds[i], err = buildNode(o, first+i, n, hot, tr, reg, addr, stop, td); err != nil {
			return nil, err
		}
	}
	if err := observe(o, w, ds, perNode, slo, td); err != nil {
		return nil, err
	}
	if banner != "" {
		fmt.Fprintln(w, banner)
	}
	for _, d := range ds {
		if d.server != nil {
			fmt.Fprintf(w, "node %d serving clients at %s\n", d.node.ID(), d.server.Addr())
		}
	}
	return ds, nil
}

// observe mounts the debug endpoints with -debug-addr — one per node
// with perNode, else one over all of ds — and with -slo runs the health
// monitor over them. The endpoints come up after the nodes exist
// (/healthz reports live node state) but before any starts: a bound
// port fails the run before cluster work begins.
func observe(o options, w io.Writer, ds []*daemon, perNode bool, slo *obs.SLO, td *teardown) (err error) {
	if o.debugAddr == "" {
		return nil
	}
	groups := [][]*daemon{ds}
	if perNode {
		groups = make([][]*daemon, len(ds))
		for i := range ds {
			groups[i] = ds[i : i+1]
		}
	}
	hp := &healthProxy{}
	urls := make([]string, len(groups))
	for i, g := range groups {
		addr := o.debugAddr
		if len(groups) > 1 {
			if addr, err = perNodeAddr("-debug-addr", addr, i); err != nil {
				return err
			}
		}
		if urls[i], err = serveDebug(o, addr, g, hp, td); err != nil {
			return err
		}
		if len(groups) > 1 {
			fmt.Fprintf(w, "node %d debug endpoints at %s: /metrics /series /healthz\n", g[0].node.ID(), urls[i])
		} else {
			fmt.Fprintf(w, "debug endpoints at %s: /metrics /debug/vars /series /debug/pprof/\n", urls[i])
		}
	}
	if slo != nil {
		var onAlert func(obs.HealthDoc)
		if recs := recorders(ds); recs != nil {
			// Every clear→firing transition cuts a replayable incident
			// artifact under each node's flight dir.
			onAlert = func(obs.HealthDoc) {
				for _, rec := range recs {
					rec.Snapshot("slo_alert")
				}
			}
		}
		where := "/health"
		if len(ds) > 1 {
			where = "/health on the debug endpoints"
		}
		startMonitor(o, w, *slo, urls, ds[0].reg, onAlert, hp, where, td)
	}
	return nil
}

// serveDebug serves one debug endpoint over nodes that share a registry:
// the registry's views, a /series recorder, and the extras over those
// nodes — /health (with -slo), /flightsnap (with -flight-dir), /jobs
// (with -serve-addr). A one-node endpoint's /healthz names the node and
// its live protocol epoch, and its errors name the node too: a daemon
// silently running without its endpoints would be invisible to the
// aggregator.
func serveDebug(o options, addr string, ds []*daemon, hp *healthProxy, td *teardown) (string, error) {
	ids := make([]int, len(ds))
	var logs []*serve.JourneyLog
	for i, d := range ds {
		ids[i] = d.node.ID()
		if d.server != nil {
			logs = append(logs, d.server.Journeys())
		}
	}
	series := cluster.NewRecorder(ds[0].reg, ids, 0)
	series.Start(o.seriesPeriod)
	td.do(series.Stop)
	extra := make(map[string]http.HandlerFunc)
	if o.slo != "" {
		extra["/health"] = hp.handler
	}
	if recs := recorders(ds); recs != nil {
		extra["/flightsnap"] = flightSnapHandler(recs)
	}
	if logs != nil {
		extra["/jobs"] = serve.JourneysHandler(logs...)
	}
	health := func() map[string]string {
		if len(ds) > 1 {
			return map[string]string{"mode": "spawn", "nodes": strconv.Itoa(len(ds))}
		}
		return map[string]string{"node": strconv.Itoa(ids[0]), "epoch": strconv.FormatUint(ds[0].node.Epoch(), 10)}
	}
	srv, err := obs.ServeDebugOpts(addr, ds[0].reg, obs.DebugOptions{Health: health, Extra: extra})
	if err != nil {
		if len(ds) == 1 {
			err = fmt.Errorf("node %d: %w", ids[0], err)
		}
		return "", err
	}
	td.do(func() { srv.Close() }) // a straggler cut off at close is no failed run
	return srv.URL(), nil
}

// startMonitor runs the -slo health monitor over urls and serves its
// document through hp. reg (nil for the aggregator) receives its alert
// counters.
func startMonitor(o options, w io.Writer, slo obs.SLO, urls []string, reg *obs.Registry,
	onAlert func(obs.HealthDoc), hp *healthProxy, where string, td *teardown) {
	mon := obs.NewMonitor(obs.MonitorConfig{
		URLs: urls, SLO: slo, Period: o.monitorPeriod, Timeout: o.scrapeTimeout,
		Obs: reg, OnAlert: onAlert,
	})
	hp.mon.Store(mon)
	mon.Start()
	td.do(mon.Stop)
	fmt.Fprintf(w, "health monitor: %s (poll %v, %s)\n", slo, o.monitorPeriod, where)
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

// recorders returns the flight recorders of ds (nil without -flight-dir).
func recorders(ds []*daemon) (recs []*flight.Recorder) {
	for _, d := range ds {
		if d.rec != nil {
			recs = append(recs, d.rec)
		}
	}
	return recs
}

// flightSnapHandler serves /flightsnap: seal and copy the given
// recorders' rings into snapshot artifacts and report the paths. An
// aggregator's alert hook hits this on every upstream.
func flightSnapHandler(recs []*flight.Recorder) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		reason := cmp.Or(r.URL.Query().Get("reason"), "manual")
		type row struct {
			Dir  string `json:"dir"`
			Path string `json:"path,omitempty"`
			Err  string `json:"err,omitempty"`
		}
		rows := make([]row, len(recs))
		status := http.StatusOK
		for i, rec := range recs {
			path, err := rec.Snapshot(reason)
			rows[i] = row{Dir: rec.Dir(), Path: path}
			if err != nil {
				rows[i].Err = err.Error()
				status = http.StatusInternalServerError
			}
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.WriteHeader(status)
		_ = json.NewEncoder(w).Encode(rows)
	}
}

// parseSLOFlag validates the -slo flag and its -debug-addr dependency;
// nil means no monitor.
func parseSLOFlag(o options) (*obs.SLO, error) {
	if o.slo == "" {
		return nil, nil
	}
	if o.debugAddr == "" {
		return nil, fmt.Errorf("-slo requires -debug-addr (the monitor scrapes the debug endpoints)")
	}
	s, err := obs.ParseSLO(o.slo)
	if err != nil {
		return nil, err
	}
	return &s, nil
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

// printFlight reports the recording once the nodes are done (the counts
// are final; the teardown seals the segments).
func printFlight(o options, w io.Writer, ds []*daemon) {
	recs := recorders(ds)
	if recs == nil {
		return
	}
	var records, dropped int64
	for _, rec := range recs {
		records += rec.Records()
		dropped += rec.Dropped()
	}
	fmt.Fprintf(w, "flight recording: %d records (%d dropped) under %s — replay with lbflight\n",
		records, dropped, o.flightDir)
}

// runSpawn runs an n-node cluster as n daemons in this process, one per
// local transport, and reports it.
func runSpawn(o options, w io.Writer, td *teardown) (bool, error) {
	n := o.spawn
	if n < 2 {
		return false, fmt.Errorf("-spawn %d: need at least 2 nodes", n)
	}
	if o.debugPerNode && o.debugAddr == "" {
		return false, fmt.Errorf("-debug-per-node requires -debug-addr")
	}
	if o.transport != "tcp" && o.transport != "inproc" {
		return false, fmt.Errorf("unknown -transport %q (tcp, inproc)", o.transport)
	}
	transports, err := wire.LocalTransports(n, o.transport == "inproc")
	if err != nil {
		return false, err
	}
	for _, tr := range transports {
		td.push(tr.Close) // a running node closes its own; this covers a failed build
	}
	hot := o.hot
	if hot < 0 {
		hot = n / 4
	}
	ds, err := assemble(o, w, n, 0, hot, transports, "", td)
	if err != nil {
		return false, err
	}
	nodes := make([]*cluster.Node, n)
	for i, d := range ds {
		nodes[i] = d.node
	}
	res, err := cluster.RunNodes(nodes)
	if err != nil {
		return false, err
	}
	printFlight(o, w, ds)
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
	if o.pace == cluster.PaceFixed && o.minInitGap > 0 {
		episodes, steps := res.RateLimited()
		fmt.Fprintf(w, "initiation pacing: fixed floor %v  deferral episodes %d (%d trigger firings)\n",
			o.minInitGap, episodes, steps)
	}
	fmt.Fprintf(w, "conservation: %s (generated %d − consumed %d = held %d)\n",
		okString(ok), res.Summary.Generated, res.Summary.Consumed, res.Summary.TotalLoad)
	return ok, nil
}

// runDaemon runs one node of a distributed cluster.
func runDaemon(o options, w io.Writer, td *teardown) (bool, error) {
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
	listen := cmp.Or(o.listen, table[o.id])
	delete(table, o.id)
	tp, err := wire.ListenTCP(o.id, listen, table)
	if err != nil {
		return false, err
	}
	td.push(tp.Close)
	banner := fmt.Sprintf("lbnode %d/%d listening on %v, peers %v", o.id, n, tp.Addr(), o.peers)
	ds, err := assemble(o, w, n, o.id, max(o.hot, 0), []wire.Transport{tp}, banner, td)
	if err != nil {
		return false, err
	}
	ds[0].node.Start()
	rep, err := ds[0].node.Wait()
	if err != nil {
		return false, err
	}
	printFlight(o, w, ds)
	s := rep.Stats
	fmt.Fprintf(w, "node %d done: load %d  generated %d  consumed %d  completed %d  aborted %d  sent %dB  recv %dB\n",
		s.ID, s.FinalLoad, s.Generated, s.Consumed, s.Completed, s.Aborted, s.BytesSent, s.BytesRecv)
	if o.serveAddr != "" {
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

// parsePeers parses "0=host:port,1=host:port,..." into an id→addr
// table and checks it is dense: ids 0..n-1, no gaps, no duplicates.
func parsePeers(s string) (map[int]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("-peers is required in daemon mode (or use -spawn)")
	}
	table := make(map[int]string)
	for _, part := range strings.Split(s, ",") {
		id, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		pid, err := strconv.Atoi(strings.TrimSpace(id))
		if addr = strings.TrimSpace(addr); !ok || err != nil || addr == "" {
			return nil, fmt.Errorf("peer entry %q is not id=host:port", part)
		}
		if _, dup := table[pid]; dup {
			return nil, fmt.Errorf("peer id %d listed twice", pid)
		}
		table[pid] = addr
	}
	// Distinct ids are dense exactly when every one of 0..n-1 is present.
	for i := range len(table) {
		if _, ok := table[i]; !ok {
			return nil, fmt.Errorf("peer ids must be dense 0..%d, %d is missing", len(table)-1, i)
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
