package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"lmbalance/internal/flight"
	"lmbalance/internal/netsim"
	"lmbalance/internal/obs"
	"lmbalance/internal/rng"
	"lmbalance/internal/serve"
	"lmbalance/internal/trace"
	"lmbalance/internal/wire"
	"lmbalance/internal/workload"
)

// PostMortem exercises the black-box flight recorder end to end, the
// way an operator would meet it, on netsim's virtual clock — so the
// recordings, and the whole artifact, are pure functions of the seed:
//
//  1. Fidelity — record a full netsim run in memory, at the nodes'
//     mailbox ports and through the node's own records, and replay the
//     segments offline through netsim.Replay: every node's stream re-executed
//     through the protocol machine, every record judged, zero
//     divergences, and the live accounting reproduced bit for bit
//     (per-node protocol counts and final accounting, conservation, the
//     VD trajectory). Every resolved operation's timeline reconstructs.
//  2. Incident — run a serving world under the health monitor with
//     recorders attached, inject an overload spike, and seal an incident
//     artifact the moment the burn-rate alert fires: every node's ring
//     is snapshotted at the poll that saw the alert. Replaying the
//     snapshot alone (no live state) must pinpoint the first degraded
//     transition: the first completion whose recorded sojourn crossed
//     the SLO threshold, with its offset into the capture, node and job.
//     The full ring must replay to the serving world's result too.
//  3. Tamper — doctor one node's replayed history so a transfer moves
//     more load than the freeze agreed to; the audit must flag the exact
//     record with an imbalance verdict. A recording that can be
//     silently doctored is not evidence.
type PostMortemResult struct {
	Baseline PMBaseline
	Incident PMIncident
	Tamper   PMTamper
}

// PMBaseline is the record→replay fidelity check on a netsim run.
type PMBaseline struct {
	N, Steps  int
	Events    int   // decoded flight records across all node streams
	Bytes     int64 // recording size: its segments' bytes, as on disk
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

	AlertAtMS     float64 // burn-rate alert, virtual ms after driving started
	Snapshots     int     // per-node snapshot directories sealed at the alert
	SnapshotBytes int64   // segments and manifests
	Events        int     // decoded records in the incident capture
	Violations    int     // divergences from the re-executed machine in the capture
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
	baseline, err := pmBaseline(scale, seed, &out.Baseline)
	if err != nil {
		return nil, fmt.Errorf("postmortem baseline: %w", err)
	}
	// Only the incident arm snapshots, and a snapshot is files.
	root, err := os.MkdirTemp("", "postmortem-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	if err := pmIncident(scale, seed, root, &out.Incident); err != nil {
		return nil, fmt.Errorf("postmortem incident: %w", err)
	}
	// The tamper arm doctors the baseline recording, proving the same
	// segments that just replayed cleanly cannot be edited undetected.
	if err := pmTamper(baseline, &out.Tamper); err != nil {
		return nil, fmt.Errorf("postmortem tamper: %w", err)
	}
	return out, nil
}

// pmBaseline records a netsim run in memory, holds the replay to the
// live result through netsim.Replay and returns the replayed recording
// for the tamper arm.
func pmBaseline(scale Scale, seed uint64, b *PMBaseline) (*flight.Recording, error) {
	n, steps := 4, 400
	if scale == ScaleFull {
		n, steps = 8, 4000
	}
	recs, err := netsim.Record("", n)
	if err != nil {
		return nil, err
	}
	res, err := netsim.Run(netsim.Config{N: n, Delta: 2, F: 2, Steps: steps, Seed: seed, Flight: recs})
	if err != nil {
		return nil, err
	}
	recording, audit, err := netsim.Replay(res, recs)
	if err != nil {
		return nil, err
	}
	for i, na := range audit.Nodes {
		b.Events += na.Events
		b.Bytes += recording.Nodes[i].Bytes
		b.Initiated += na.Initiated
		b.Resolved += na.Resolved
		b.Aborted += na.Aborted
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
		return nil, fmt.Errorf("timelines with a resolve: %d, live completed ops: %d", resolved, res.Completed())
	}
	b.N, b.Steps = n, steps
	b.TotalLoad, b.Conserved = audit.TotalLoad, audit.Conserved()
	b.Timelines, b.VDPoints = resolved, len(audit.VD)
	b.Identical = true
	return recording, nil
}

// pmIncident drives an overload spike into a monitored serving world
// with recorders attached and audits the snapshot the alert sealed.
func pmIncident(scale Scale, seed uint64, dir string, inc *PMIncident) error {
	const conP = 1.0
	// The spike is the injected fault: three times what the nodes can
	// serve, so it trips the burn-rate alert. No tight steady control
	// runs here (that is anatomy's job) — the threshold only needs to
	// sit between healthy sojourns and the spike's queueing.
	demand := workload.BoundedPareto{Alpha: 1.5, Lo: 1, Hi: 20}
	n, sloText := 4, "p95 < 250ms over 120ms/360ms burn 2"
	spikeRate := func(n int) float64 { return 3 * float64(n) * conP / serveSlot.Seconds() / demand.Mean() }
	env := fmt.Sprintf("75x300ms,%.0fx400ms,150x500ms", spikeRate(n))
	pollPeriod, warmup := 15*time.Millisecond, 300*time.Millisecond
	if scale == ScaleFull {
		n, sloText = 8, "p95 < 100ms over 120ms/360ms burn 2"
		env = fmt.Sprintf("300x500ms,%.0fx600ms,300x500ms", spikeRate(n))
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
		Env: envelope, Demand: demand, Horizon: envelope.Period(),
	}.Schedule(rng.New(seed))
	if err != nil {
		return err
	}
	recs, err := netsim.Record(dir, n)
	if err != nil {
		return err
	}
	defer func() { // Replay closes the recorders; this is for the error paths
		for _, rec := range recs {
			rec.Close()
		}
	}()

	// Snapshot-on-alert, as cmd/lbnode's OnAlert hook does, but at the
	// poll itself: the world stands still between ticks, so every node's
	// ring is sealed at the same virtual instant. Only the first alert
	// snapshots — an incident is one artifact, not one per flap.
	reg := obs.NewRegistry()
	mon := obs.NewMonitor(obs.MonitorConfig{SLO: slo, Obs: reg})
	var dirs []string
	alertAtMS := -1.0
	var snapErr error
	poll := func(now time.Duration) {
		due := now >= warmup && now <= envelope.Period() && (now-warmup)%pollPeriod == 0
		if !due || dirs != nil || snapErr != nil {
			return
		}
		if doc := mon.Poll(time.Unix(0, int64(now))); !doc.Alerting {
			return
		}
		alertAtMS = float64(now) / float64(time.Millisecond)
		for _, rec := range recs {
			d, err := rec.Snapshot("slo_alert")
			if err != nil {
				snapErr = err
				return
			}
			dirs = append(dirs, d)
		}
	}
	run, err := serveOnNetsim(netsim.Config{
		N: n, Delta: 2, F: 1.2, ConP: []float64{conP}, Seed: seed, Flight: recs,
	}, arrivals, serve.LoadSpec{HotFrac: 0.7, HotN: n / 4}, reg, poll)
	if err == nil {
		err = snapErr
	}
	if err != nil {
		return err
	}
	// The full ring, snapshots aside, is the whole world's recording.
	if _, _, err := netsim.Replay(run.res, recs); err != nil {
		return fmt.Errorf("full recording: %w", err)
	}
	if len(dirs) != n {
		return fmt.Errorf("alert sealed %d of %d node snapshots", len(dirs), n)
	}

	// The post-mortem proper: load ONLY the sealed snapshots — the live
	// world and its registry are gone.
	capture := &flight.Recording{}
	for _, d := range dirs {
		nr, err := flight.LoadDir(d)
		if err != nil {
			return fmt.Errorf("snapshot %s: %w", d, err)
		}
		man, err := os.Stat(filepath.Join(d, "manifest.json"))
		if err != nil {
			return err
		}
		capture.Nodes = append(capture.Nodes, nr)
		inc.Events += len(nr.Events)
		inc.SnapshotBytes += nr.Bytes + man.Size()
	}
	audit := flight.Audit(capture)
	if audit.First != nil {
		return fmt.Errorf("overload capture shows an illegal protocol step: %v", *audit.First)
	}
	// The recording's clock is the tick: a recorded sojourn counts the
	// slots from ingest to the one that completed the unit, which serves
	// it too.
	over := func(ticks int64) bool { return slotSeconds(ticks+1) > slo.Threshold }
	for _, s := range audit.SojournNS {
		if over(s) {
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
		if ev.Dir == flight.DirLocal && ev.Kind == flight.LocalComplete && over(ev.Arg(2)) {
			inc.DegradedAtMS = slotSeconds(ev.WallNS-firstWall) * 1e3
			inc.DegradedNode = ev.Node
			inc.DegradedJob = uint64(ev.Arg(0))
			inc.DegradedSojournMS = slotSeconds(ev.Arg(2)+1) * 1e3
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("over-SLO sojourns exist but no degraded completion event found")
	}
	inc.N, inc.SLO, inc.Envelope = n, slo, envelope.String()
	inc.Submitted, inc.Completed = int64(len(arrivals)), int64(len(run.sojourns))
	inc.AlertAtMS, inc.Snapshots = alertAtMS, len(dirs)
	inc.Violations = len(audit.Violations)
	for _, na := range audit.Nodes {
		inc.Unverified += na.Unverified
	}
	inc.Completions = len(audit.SojournNS)
	inc.ReplayP95MS = slotSeconds(audit.SojournQuantile(0.95)+1) * 1e3
	return nil
}

// pmTamper doctors the baseline recording — one node's transfers each
// move three extra units — and requires the audit to name the exact
// record that broke the freeze agreement.
func pmTamper(baseline *flight.Recording, t *PMTamper) error {
	var victim *flight.NodeRecording
	for _, nr := range baseline.Nodes {
		if slices.ContainsFunc(nr.Events, func(ev flight.Event) bool {
			return ev.Dir == flight.DirSend && ev.Msg.Kind == wire.Transfer
		}) {
			victim = nr
			break
		}
	}
	if victim == nil {
		return fmt.Errorf("baseline run completed no transfers to tamper with")
	}
	events := slices.Clone(victim.Events)
	for i := range events {
		if ev := &events[i]; ev.Dir == flight.DirSend && ev.Msg.Kind == wire.Transfer {
			// Three units stolen in transit put the acker's share outside
			// every ±1 split its operation could have dealt.
			ev.Msg.Amount += 3
		}
	}
	verdict := flight.Audit(&flight.Recording{Nodes: []*flight.NodeRecording{{Node: victim.Node, Events: events}}})
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

func (r *PostMortemResult) Render(w io.Writer) error {
	if err := header(w, "Black-box post-mortem: record, snapshot on alert, replay to a verdict"); err != nil {
		return err
	}
	b := &r.Baseline
	tb := trace.NewTable(
		fmt.Sprintf("fidelity: n=%d netsim run, %d steps, recorded at the mailbox ports (%d events, %d KiB)",
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
		"incident: %s spike into n=%d serving world, SLO %s", inc.Envelope, inc.N, inc.SLO)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w,
		"burn-rate alert fired %.0fms into the drive; the alerting poll sealed %d node\nsnapshots — %d KiB, %d records — while the world kept serving (%d of %d\ndriven jobs eventually completed).\n\n",
		inc.AlertAtMS, inc.Snapshots, inc.SnapshotBytes/1024, inc.Events,
		inc.Completed, inc.Submitted); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w,
		"replaying the snapshots alone (live world gone): %d legality violations, %d of\n%d records unverified (judged from each stream's first record proving its\nnode unengaged) — the protocol stayed correct under overload; the incident\nis pure queueing.\n%d of %d replayed completions exceeded the %.0fms SLO (offline p95 %.1fms).\nfirst degraded transition: job %d on node %d, sojourn %.1fms, %.0fms into the capture.\n",
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
