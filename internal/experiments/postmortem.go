package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"lmbalance/internal/cluster"
	"lmbalance/internal/flight"
	"lmbalance/internal/obs"
	"lmbalance/internal/rng"
	"lmbalance/internal/serve"
	"lmbalance/internal/trace"
	"lmbalance/internal/wire"
	"lmbalance/internal/workload"
)

// PostMortem exercises the black-box flight recorder end to end, the
// way an operator would meet it:
//
//  1. Fidelity — record a full loopback cluster run through transport
//     taps and the node's own records, replay the segments offline, and
//     require the audit — every node's stream re-executed through the
//     protocol machine, every record judged — to reproduce the live
//     accounting bit for bit (per-node protocol counts, final loads,
//     conservation, per-op timelines, the VD trajectory) with zero
//     divergences.
//  2. Incident — run a serving cluster under the health monitor with
//     recorders attached, inject an overload spike, and let the
//     monitor's snapshot-on-alert hook seal an incident artifact the
//     moment the burn-rate alert fires. Replaying the snapshot alone
//     (no live state, no debug endpoints) must pinpoint the first
//     degraded transition: the first completion whose recorded sojourn
//     crossed the SLO threshold, with its wall offset, node and job.
//  3. Tamper — rewrite one node's history so a transfer moves more
//     load than the freeze agreed to; the audit must flag the exact
//     record with an imbalance verdict. A recording that can be
//     silently doctored is not evidence.
type PostMortemResult struct {
	Baseline PMBaseline
	Incident PMIncident
	Tamper   PMTamper
}

// PMBaseline is the record→replay fidelity check on a loopback run.
type PMBaseline struct {
	N, Steps  int
	Events    int   // decoded flight records across all node streams
	Bytes     int64 // on-disk recording size
	Initiated int64 // live == replay (checked)
	Resolved  int64
	Aborted   int64
	TotalLoad int64
	Conserved bool
	Timelines int64 // per-op timelines holding a resolve == live completed ops
	VDPoints  int
	Identical bool // every compared quantity matched bit for bit
}

// PMIncident is the snapshot-on-alert capture and its offline verdict.
type PMIncident struct {
	N         int
	SLO       obs.SLO
	Envelope  string
	Submitted int64
	Completed int64

	AlertAtMS     float64 // burn-rate alert, ms after driving started
	Snapshots     int     // per-node snapshot directories sealed by the hook
	SnapshotBytes int64
	Events        int // decoded records in the incident capture
	Violations    int // divergences from the re-executed machine in the capture
	// Unverified counts the capture's records replay could not judge:
	// each snapshot's stream starts where its ring had wrapped, possibly
	// mid-protocol, and is judged from the first record that proves its
	// node unengaged.
	Unverified int64

	Completions       int     // completions replayed from the capture
	OverSLO           int     // of those, over the SLO threshold
	ReplayP95MS       float64 // p95 sojourn re-derived offline
	DegradedAtMS      float64 // first over-threshold completion, ms into the capture
	DegradedNode      int
	DegradedJob       uint64
	DegradedSojournMS float64
}

// PMTamper is the audit's verdict on a doctored history.
type PMTamper struct {
	Node   int
	Index  int // position of the flagged record in the node's stream
	Rule   string
	Detail string
}

// PostMortem runs the three arms. Every claim the rendered artifact
// makes is asserted here; a regression fails the run, not just the
// prose.
func PostMortem(scale Scale, seed uint64) (*PostMortemResult, error) {
	out := &PostMortemResult{}
	root, err := os.MkdirTemp("", "postmortem-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	baseDir := filepath.Join(root, "baseline")
	if err := pmBaseline(scale, seed, baseDir, &out.Baseline); err != nil {
		return nil, fmt.Errorf("postmortem baseline: %w", err)
	}
	if err := pmIncident(scale, seed, filepath.Join(root, "incident"), &out.Incident); err != nil {
		return nil, fmt.Errorf("postmortem incident: %w", err)
	}
	// The tamper arm doctors the baseline recording, proving the same
	// segments that just replayed cleanly cannot be edited undetected.
	if err := pmTamper(baseDir, filepath.Join(root, "tampered"), &out.Tamper); err != nil {
		return nil, fmt.Errorf("postmortem tamper: %w", err)
	}
	return out, nil
}

// pmBaseline records a loopback cluster run and replays it, requiring
// bit-identity with the live result. The recording is left in dir for
// the tamper arm.
func pmBaseline(scale Scale, seed uint64, dir string, b *PMBaseline) error {
	n, steps := 4, 400
	if scale == ScaleFull {
		n, steps = 8, 4000
	}
	lnet := wire.NewLoopback(n)
	recs := make([]*flight.Recorder, n)
	transports := make([]wire.Transport, n)
	for i := 0; i < n; i++ {
		rec, err := flight.Open(flight.Options{Dir: filepath.Join(dir, fmt.Sprintf("node-%d", i)), Node: i})
		if err != nil {
			return err
		}
		recs[i] = rec
		transports[i] = rec.Tap(lnet.Transport(i))
	}
	res, err := cluster.RunCluster(cluster.ClusterConfig{
		N: n, Delta: 2, F: 2, Steps: steps, Seed: seed,
		Flight: recs,
	}, transports)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		if err := rec.Close(); err != nil {
			return err
		}
		if rec.Dropped() != 0 {
			return fmt.Errorf("recorder dropped %d records; identity needs the full stream", rec.Dropped())
		}
	}

	recording, err := flight.LoadTree(dir)
	if err != nil {
		return err
	}
	audit := flight.Audit(recording)
	if audit.First != nil {
		return fmt.Errorf("clean run flagged: %v", *audit.First)
	}
	if audit.FinalsSeen != n {
		return fmt.Errorf("finals from %d of %d nodes", audit.FinalsSeen, n)
	}
	for i, na := range audit.Nodes {
		live := res.Nodes[i]
		if na.Unverified != 0 {
			return fmt.Errorf("node %d: %d records of a whole recording unverified", i, na.Unverified)
		}
		if na.Initiated != live.Initiated || na.Resolved != live.Completed ||
			na.Aborted != live.Aborted || na.FreezeExpired != live.FreezeExpired {
			return fmt.Errorf("node %d protocol counts diverge: replay init=%d res=%d abort=%d vs live %d/%d/%d",
				i, na.Initiated, na.Resolved, na.Aborted, live.Initiated, live.Completed, live.Aborted)
		}
		if na.Final == nil || na.Final.Load != live.FinalLoad {
			return fmt.Errorf("node %d final load: replay %+v live %d", i, na.Final, live.FinalLoad)
		}
		b.Events += na.Events
		b.Initiated += na.Initiated
		b.Resolved += na.Resolved
		b.Aborted += na.Aborted
	}
	if audit.TotalLoad != res.TotalLoad() || audit.Conserved() != res.Conserved() {
		return fmt.Errorf("conservation diverges: replay %d/%v live %d/%v",
			audit.TotalLoad, audit.Conserved(), res.TotalLoad(), res.Conserved())
	}
	resolved := int64(0)
	_, timelines := recording.Timelines()
	for _, tl := range timelines {
		for _, ev := range tl {
			if ev.Dir == flight.DirLocal && ev.Kind == flight.LocalResolve {
				resolved++
				break
			}
		}
	}
	if resolved != res.Completed() {
		return fmt.Errorf("timelines with a resolve: %d, live completed ops: %d", resolved, res.Completed())
	}
	if len(audit.VD) == 0 {
		return fmt.Errorf("no VD trajectory from a full recording")
	}
	b.N, b.Steps = n, steps
	b.TotalLoad, b.Conserved = audit.TotalLoad, audit.Conserved()
	b.Timelines, b.VDPoints = resolved, len(audit.VD)
	b.Bytes = treeBytes(dir)
	b.Identical = true
	return nil
}

// pmIncident drives an overload spike into a monitored serving cluster
// with recorders attached and audits the snapshot the alert sealed.
func pmIncident(scale Scale, seed uint64, dir string, inc *PMIncident) error {
	const (
		conP         = 1.0
		stepInterval = 200 * time.Microsecond
	)
	// The spike is the injected fault: far beyond cluster capacity, so
	// it trips the burn-rate alert on any hardware. No tight steady
	// control runs here (that is anatomy's job) — the threshold only
	// needs to sit between healthy sojourns and the spike's queueing.
	n, sloText := 4, "p95 < 250ms over 120ms/360ms burn 2"
	env := "75x300ms,12000x400ms,150x500ms"
	pollPeriod, warmup := 15*time.Millisecond, 300*time.Millisecond
	if scale == ScaleFull {
		n, sloText = 8, "p95 < 100ms over 120ms/360ms burn 2"
		env = "300x500ms,12000x600ms,300x500ms"
		pollPeriod, warmup = 25*time.Millisecond, 500*time.Millisecond
	}
	slo, err := obs.ParseSLO(sloText)
	if err != nil {
		return err
	}
	envelope, err := workload.ParseEnvelope(env)
	if err != nil {
		return err
	}
	arrivals, err := workload.ArrivalSpec{
		Env: envelope, Demand: workload.BoundedPareto{Alpha: 1.5, Lo: 1, Hi: 20},
		Horizon: envelope.Period(),
	}.Schedule(rng.New(seed))
	if err != nil {
		return err
	}

	recs := make([]*flight.Recorder, n)
	for i := range recs {
		rec, err := flight.Open(flight.Options{Dir: filepath.Join(dir, fmt.Sprintf("node-%d", i)), Node: i})
		if err != nil {
			return err
		}
		recs[i] = rec
	}
	reg := obs.NewRegistry()
	sc, err := serve.StartServeCluster(serve.ClusterSpec{
		N: n, Delta: 2, F: 1.2,
		ConP: conP, StepInterval: stepInterval,
		Seed: seed, Obs: reg, Flight: recs,
	})
	if err != nil {
		return err
	}
	dbg, err := obs.ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		sc.DrainAndStop(time.Second)
		return err
	}
	defer dbg.Close()

	// Snapshot-on-alert: the first clear→firing transition seals every
	// node's ring into an incident artifact, exactly as cmd/lbnode does
	// in production. Only the first alert snapshots — an incident is one
	// artifact, not one per flap.
	start := time.Now()
	var (
		snapOnce  sync.Once
		snapMu    sync.Mutex
		snapDirs  []string
		alertAtMS float64 = -1
	)
	mon := obs.NewMonitor(obs.MonitorConfig{
		URLs: []string{dbg.URL()}, SLO: slo,
		Period: pollPeriod, Obs: reg,
		OnAlert: func(obs.HealthDoc) {
			snapOnce.Do(func() {
				snapMu.Lock()
				defer snapMu.Unlock()
				alertAtMS = time.Since(start).Seconds() * 1e3
				for _, rec := range recs {
					if d, err := rec.Snapshot("slo_alert"); err == nil {
						snapDirs = append(snapDirs, d)
					}
				}
			})
		},
	})
	// Baseline the monitor after the warmup transient, then poll on the
	// wall clock while the drive runs open loop.
	monStop, monUp := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(monUp)
		select {
		case <-monStop:
			return
		case <-time.After(warmup):
		}
		mon.Poll(time.Now())
		mon.Start()
	}()

	res, err := serve.Drive(sc.Addrs(), arrivals, serve.LoadSpec{HotFrac: 0.7, HotN: n / 4}, seed+1, 30*time.Second)
	close(monStop)
	<-monUp
	mon.Stop()
	if err != nil {
		sc.DrainAndStop(time.Second)
		return err
	}
	if _, _, err := sc.DrainAndStop(30 * time.Second); err != nil {
		return err
	}
	for _, rec := range recs {
		if err := rec.Close(); err != nil {
			return err
		}
	}

	snapMu.Lock()
	dirs := append([]string(nil), snapDirs...)
	at := alertAtMS
	snapMu.Unlock()
	if len(dirs) != n {
		return fmt.Errorf("alert sealed %d of %d node snapshots (alert at %.0fms)", len(dirs), n, at)
	}

	// The post-mortem proper: load ONLY the sealed snapshots — the live
	// cluster, its registry and its debug endpoints are gone.
	capture := &flight.Recording{}
	for _, d := range dirs {
		nr, err := flight.LoadDir(d)
		if err != nil {
			return fmt.Errorf("snapshot %s: %w", d, err)
		}
		capture.Nodes = append(capture.Nodes, nr)
		inc.Events += len(nr.Events)
		inc.SnapshotBytes += treeBytes(d)
	}
	audit := flight.Audit(capture)
	if audit.First != nil {
		return fmt.Errorf("overload capture shows an illegal protocol step: %v", *audit.First)
	}
	thresholdNS := int64(slo.Threshold * 1e9)
	for _, s := range audit.SojournNS {
		if s > thresholdNS {
			inc.OverSLO++
		}
	}
	if inc.OverSLO == 0 {
		return fmt.Errorf("capture holds no over-SLO completion (%d completions)", len(audit.SojournNS))
	}
	// Pinpoint the first degraded transition in the merged stream.
	merged := capture.Merge()
	firstWall := int64(0)
	if len(merged) > 0 {
		firstWall = merged[0].WallNS
	}
	found := false
	for _, ev := range merged {
		if ev.Dir == flight.DirLocal && ev.Kind == flight.LocalComplete && ev.Arg(2) > thresholdNS {
			inc.DegradedAtMS = float64(ev.WallNS-firstWall) / 1e6
			inc.DegradedNode = ev.Node
			inc.DegradedJob = uint64(ev.Arg(0))
			inc.DegradedSojournMS = float64(ev.Arg(2)) / 1e6
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("over-SLO sojourns exist but no degraded completion event found")
	}
	inc.N, inc.SLO, inc.Envelope = n, slo, envelope.String()
	inc.Submitted, inc.Completed = res.Submitted, res.Completed
	inc.AlertAtMS, inc.Snapshots = at, len(dirs)
	inc.Violations = len(audit.Violations)
	for _, na := range audit.Nodes {
		inc.Unverified += na.Unverified
	}
	inc.Completions = len(audit.SojournNS)
	inc.ReplayP95MS = float64(audit.SojournQuantile(0.95)) / 1e6
	return nil
}

// pmTamper doctors the baseline recording — one node's transfers each
// move three extra units — and requires the audit to name the exact
// record that broke the freeze agreement.
func pmTamper(srcRoot, dst string, t *PMTamper) error {
	entries, err := os.ReadDir(srcRoot)
	if err != nil {
		return err
	}
	victim := ""
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		nr, err := flight.LoadDir(filepath.Join(srcRoot, e.Name()))
		if err != nil {
			return err
		}
		for _, ev := range nr.Events {
			if ev.Dir == flight.DirSend && ev.Msg.Kind == wire.Transfer {
				victim = e.Name()
				break
			}
		}
		if victim != "" {
			break
		}
	}
	if victim == "" {
		return fmt.Errorf("baseline run completed no transfers to tamper with")
	}
	err = flight.Rewrite(filepath.Join(srcRoot, victim), dst, func(ev flight.Event) flight.Event {
		if ev.Dir == flight.DirSend && ev.Msg.Kind == wire.Transfer {
			// Three units stolen in transit put the acker's share outside
			// every ±1 split its operation could have dealt.
			ev.Msg.Amount += 3
		}
		return ev
	})
	if err != nil {
		return err
	}
	nr, err := flight.LoadDir(dst)
	if err != nil {
		return err
	}
	verdict := flight.Audit(&flight.Recording{Nodes: []*flight.NodeRecording{nr}})
	if verdict.First == nil {
		return fmt.Errorf("tampered history passed the audit")
	}
	if verdict.First.Rule != "imbalance_violation" {
		return fmt.Errorf("tampered history flagged %q, want imbalance_violation", verdict.First.Rule)
	}
	t.Node, t.Index = verdict.First.Node, verdict.First.Index
	t.Rule, t.Detail = verdict.First.Rule, verdict.First.Detail
	return nil
}

// treeBytes sums regular-file sizes under root.
func treeBytes(root string) int64 {
	var total int64
	filepath.Walk(root, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total
}

func (r *PostMortemResult) Render(w io.Writer) error {
	if err := header(w, "Black-box post-mortem: record, snapshot on alert, replay to a verdict"); err != nil {
		return err
	}
	b := &r.Baseline
	tb := trace.NewTable(
		fmt.Sprintf("fidelity: n=%d loopback run, %d steps, recorded through transport taps (%d events, %d KiB)",
			b.N, b.Steps, b.Events, b.Bytes/1024),
		"quantity", "live", "replay")
	same := func(v int64) [2]string { s := fmt.Sprintf("%d", v); return [2]string{s, s} }
	for _, row := range []struct {
		name string
		v    [2]string
	}{
		{"operations initiated", same(b.Initiated)},
		{"operations resolved", same(b.Resolved)},
		{"operations aborted", same(b.Aborted)},
		{"total load", same(b.TotalLoad)},
		{"conserved", [2]string{fmt.Sprintf("%v", b.Conserved), fmt.Sprintf("%v", b.Conserved)}},
	} {
		tb.AddRow(row.name, row.v[0], row.v[1])
	}
	if err := tb.WriteText(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w,
		"offline replay reproduced the live audit bit for bit: %d per-op timelines\n(= every resolved operation), %d-point VD trajectory; every record re-executed\nthrough the protocol machine, zero divergences, 0 unverified.\n",
		b.Timelines, b.VDPoints); err != nil {
		return err
	}

	inc := &r.Incident
	if err := header(w, fmt.Sprintf(
		"incident: %s spike into n=%d serving cluster, SLO %s", inc.Envelope, inc.N, inc.SLO)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w,
		"burn-rate alert fired %.0fms into the drive; the on-alert hook sealed %d node\nsnapshots — %d KiB, %d records — while the cluster kept serving (%d of %d\ndriven jobs eventually completed).\n\n",
		inc.AlertAtMS, inc.Snapshots, inc.SnapshotBytes/1024, inc.Events,
		inc.Completed, inc.Submitted); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w,
		"replaying the snapshots alone (live cluster gone): %d legality violations, %d of\n%d records unverified (judged from each stream's first record proving its\nnode unengaged) — the protocol stayed correct under overload; the incident\nis pure queueing.\n%d of %d replayed completions exceeded the %.0fms SLO (offline p95 %.1fms).\nfirst degraded transition: job %d on node %d, sojourn %.1fms, %.0fms into the capture.\n",
		inc.Violations, inc.Unverified, inc.Events, inc.OverSLO, inc.Completions, inc.SLO.Threshold*1e3, inc.ReplayP95MS,
		inc.DegradedJob, inc.DegradedNode, inc.DegradedSojournMS, inc.DegradedAtMS); err != nil {
		return err
	}

	t := &r.Tamper
	if err := header(w, "tamper: doctored history (every transfer +3 units)"); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w,
		"audit verdict: node %d event %d flagged %s (%s) —\nthe recording cannot be edited without the re-executed machine noticing.\n",
		t.Node, t.Index, t.Rule, t.Detail)
	return err
}
