// Command lbflight is the offline replay auditor for flight-recorder
// artifacts: the tool you point at a recording directory after the
// cluster — or the incident — is gone. It loads one or many per-node
// segment rings (a node dir, a parent of node-N dirs, or a
// snapshot-on-alert artifact) and re-executes each node's stream
// through the protocol state machine (internal/proto) to check that
// every recorded send, decision and split is what the machine computes,
// plus packet and job conservation and the VD trajectory, entirely from
// disk. It also prints one balancing operation's cross-node timeline —
// the recording is the only place one is kept — and diffs two
// recordings field by field.
//
// The exit status is the verdict: 0 for a clean audit, 1 for a failed
// load (a segment from another format version is refused by name), 2
// when the replay finds divergences or broken conservation —
// so CI and incident tooling can gate on it without parsing output.
//
// Examples:
//
//	lbflight run/                         # audit every node under run/
//	lbflight -ops run/                    # list balancing ops seen
//	lbflight -op 0x1c0000000001 run/      # one op's merged timeline
//	lbflight -diff before/ after/         # field-by-field drift
//	lbflight -json run/ > audit.json      # machine-readable verdict
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"lmbalance/internal/flight"
)

func main() {
	var (
		listOps = flag.Bool("ops", false, "list the balancing-op ids in the recording and exit")
		opStr   = flag.String("op", "", "print one balancing op's merged cross-node timeline (decimal or 0x hex id)")
		diff    = flag.Bool("diff", false, "audit exactly two recordings and print their field-by-field differences")
		asJSON  = flag.Bool("json", false, "emit the audit (or diff) as JSON instead of text")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: lbflight [flags] <recording-dir> [<recording-dir>]\n\n"+
				"A recording dir is a single node's segment directory, a parent of\n"+
				"node-N directories, or a snapshot artifact. Flags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	code, err := run(os.Stdout, flag.Args(), *listOps, *opStr, *diff, *asJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbflight:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

// run drives one invocation and returns the process exit code: 0 for a
// clean verdict, 2 for violations or diff disagreements (load and
// usage errors surface as err, exit 1).
func run(w io.Writer, dirs []string, listOps bool, opStr string, diff, asJSON bool) (int, error) {
	if diff {
		if len(dirs) != 2 {
			return 0, fmt.Errorf("-diff needs exactly two recording dirs, got %d", len(dirs))
		}
		return runDiff(w, dirs[0], dirs[1], asJSON)
	}
	if len(dirs) != 1 {
		return 0, fmt.Errorf("need exactly one recording dir (or two with -diff), got %d", len(dirs))
	}
	rec, err := flight.LoadTree(dirs[0])
	if err != nil {
		return 0, err
	}
	if listOps {
		return 0, printOps(w, rec, asJSON)
	}
	if opStr != "" {
		op, err := parseOp(opStr)
		if err != nil {
			return 0, err
		}
		return 0, printTimeline(w, rec, op, asJSON)
	}
	return runAudit(w, rec, asJSON)
}

func parseOp(s string) (uint64, error) {
	op, err := strconv.ParseUint(strings.TrimPrefix(s, "0x"), base(s), 64)
	if err != nil {
		return 0, fmt.Errorf("bad -op %q: %v", s, err)
	}
	return op, nil
}

func base(s string) int {
	if strings.HasPrefix(s, "0x") {
		return 16
	}
	return 10
}

func printOps(w io.Writer, rec *flight.Recording, asJSON bool) error {
	ops, timelines := rec.Timelines()
	if asJSON {
		return json.NewEncoder(w).Encode(ops)
	}
	fmt.Fprintf(w, "%d balancing ops across %d node streams:\n", len(ops), len(rec.Nodes))
	for _, op := range ops {
		tl := timelines[op]
		nodes := map[int]bool{}
		for _, ev := range tl {
			nodes[ev.Node] = true
		}
		fmt.Fprintf(w, "  0x%-14x %4d events across %d nodes\n", op, len(tl), len(nodes))
	}
	return nil
}

func printTimeline(w io.Writer, rec *flight.Recording, op uint64, asJSON bool) error {
	_, timelines := rec.Timelines()
	tl := timelines[op]
	if len(tl) == 0 {
		return fmt.Errorf("op 0x%x not in recording", op)
	}
	if asJSON {
		return json.NewEncoder(w).Encode(tl)
	}
	t0 := tl[0].WallNS
	fmt.Fprintf(w, "op 0x%x: %d events\n", op, len(tl))
	for _, ev := range tl {
		fmt.Fprintf(w, "  %s\n", formatEvent(ev, t0))
	}
	return nil
}

// formatEvent renders one record as a timeline line, offsets relative
// to the op's (or recording's) first event.
func formatEvent(ev flight.Event, t0 int64) string {
	at := time.Duration(ev.WallNS - t0)
	switch ev.Dir {
	case flight.DirSend:
		return fmt.Sprintf("%12s node %d  send  %-10s -> %d  seq=%d amount=%d load=%d",
			at, ev.Node, ev.Msg.Kind, ev.Peer, ev.Msg.Seq, ev.Msg.Amount, ev.Msg.Load)
	case flight.DirRecv:
		return fmt.Sprintf("%12s node %d  recv  %-10s <- %d  seq=%d amount=%d load=%d",
			at, ev.Node, ev.Msg.Kind, ev.Peer, ev.Msg.Seq, ev.Msg.Amount, ev.Msg.Load)
	default:
		args := make([]string, len(ev.Args))
		for i, a := range ev.Args {
			args[i] = strconv.FormatInt(a, 10)
		}
		extra := ""
		if ev.Kind == flight.LocalAbort {
			extra = " reason=" + flight.AbortReason(ev.Arg(2))
		}
		return fmt.Sprintf("%12s node %d  local %-14s args=[%s]%s",
			at, ev.Node, ev.Kind, strings.Join(args, " "), extra)
	}
}

// auditDoc is the JSON shape of a verdict; it wraps the library audit
// with the derived booleans so consumers need no re-computation.
type auditDoc struct {
	Dir           string              `json:"dir"`
	Nodes         int                 `json:"nodes"`
	Events        int                 `json:"events"`
	Violations    []flight.Violation  `json:"violations"`
	First         *flight.Violation   `json:"first,omitempty"`
	Conserved     bool                `json:"conserved"`
	JobsConserved bool                `json:"jobs_conserved"`
	FinalsSeen    int                 `json:"finals_seen"`
	TotalLoad     int64               `json:"total_load"`
	Generated     int64               `json:"generated"`
	Consumed      int64               `json:"consumed"`
	VDFinal       float64             `json:"vd_final,omitempty"`
	SojournP50MS  float64             `json:"sojourn_p50_ms,omitempty"`
	SojournP99MS  float64             `json:"sojourn_p99_ms,omitempty"`
	PerNode       []*flight.NodeAudit `json:"per_node"`
}

func buildDoc(rec *flight.Recording, audit *flight.AuditResult) auditDoc {
	doc := auditDoc{
		Dir:           rec.Dir,
		Nodes:         len(rec.Nodes),
		Violations:    audit.Violations,
		First:         audit.First,
		Conserved:     audit.Conserved(),
		JobsConserved: audit.JobsConserved(),
		FinalsSeen:    audit.FinalsSeen,
		TotalLoad:     audit.TotalLoad,
		Generated:     audit.Generated,
		Consumed:      audit.Consumed,
		PerNode:       audit.Nodes,
	}
	for _, nr := range rec.Nodes {
		doc.Events += len(nr.Events)
	}
	if len(audit.VD) > 0 {
		doc.VDFinal = audit.VD[len(audit.VD)-1].VD
	}
	if len(audit.SojournNS) > 0 {
		doc.SojournP50MS = float64(audit.SojournQuantile(0.50)) / 1e6
		doc.SojournP99MS = float64(audit.SojournQuantile(0.99)) / 1e6
	}
	return doc
}

// clean is the gate CI and incident tooling key off: no illegal steps
// and, when every node's final accounting made it to disk, both
// conservation laws hold.
func clean(audit *flight.AuditResult, nodes int) bool {
	if audit.First != nil {
		return false
	}
	if audit.FinalsSeen == nodes {
		return audit.Conserved() && audit.JobsConserved()
	}
	return true
}

func runAudit(w io.Writer, rec *flight.Recording, asJSON bool) (int, error) {
	audit := flight.Audit(rec)
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(buildDoc(rec, audit)); err != nil {
			return 0, err
		}
	} else {
		printAudit(w, rec, audit)
	}
	if !clean(audit, len(rec.Nodes)) {
		return 2, nil
	}
	return 0, nil
}

func printAudit(w io.Writer, rec *flight.Recording, audit *flight.AuditResult) {
	fmt.Fprintf(w, "recording %s: %d node streams\n", rec.Dir, len(rec.Nodes))
	fmt.Fprintf(w, "  %-5s %8s %8s %9s %9s %8s %8s %7s %10s %6s\n",
		"node", "events", "sent", "recv", "initiated", "resolved", "aborted", "drops", "unverified", "torn")
	for _, na := range audit.Nodes {
		fmt.Fprintf(w, "  %-5d %8d %8d %9d %9d %8d %8d %7d %10d %6v\n",
			na.Node, na.Events, na.MsgsSent, na.MsgsRecv,
			na.Initiated, na.Resolved, na.Aborted, na.Drops, na.Unverified, na.Torn)
	}
	if audit.FinalsSeen == len(rec.Nodes) {
		fmt.Fprintf(w, "conservation: load=%d generated=%d consumed=%d -> %s\n",
			audit.TotalLoad, audit.Generated, audit.Consumed, verdict(audit.Conserved()))
		fmt.Fprintf(w, "jobs: ingested=%d done=%d held=%d -> %s\n",
			audit.Ingested, audit.UnitsDone, audit.RecordsHeld, verdict(audit.JobsConserved()))
	} else {
		fmt.Fprintf(w, "conservation: skipped (finals from %d of %d nodes)\n",
			audit.FinalsSeen, len(rec.Nodes))
	}
	if len(audit.VD) > 0 {
		fmt.Fprintf(w, "vd trajectory: %.4f -> %.4f over %s (%d points)\n",
			audit.VD[0].VD, audit.VD[len(audit.VD)-1].VD,
			time.Duration(audit.VD[len(audit.VD)-1].TNS), len(audit.VD))
	}
	if n := len(audit.SojournNS); n > 0 {
		fmt.Fprintf(w, "sojourns: %d completions, p50=%.3fms p99=%.3fms\n",
			n, float64(audit.SojournQuantile(0.50))/1e6, float64(audit.SojournQuantile(0.99))/1e6)
	}
	if len(audit.Violations) == 0 {
		fmt.Fprintln(w, "legality: clean (every judged record is what the machine computes)")
		return
	}
	fmt.Fprintf(w, "legality: %d violations; first divergence:\n", len(audit.Violations))
	fmt.Fprintf(w, "  >> %s\n", *audit.First)
	// Show the remaining violations grouped by rule so a cascade reads
	// as one fault, not a wall of lines.
	byRule := map[string]int{}
	for _, v := range audit.Violations {
		byRule[v.Rule]++
	}
	rules := make([]string, 0, len(byRule))
	for r := range byRule {
		rules = append(rules, r)
	}
	sort.Strings(rules)
	for _, r := range rules {
		fmt.Fprintf(w, "  %4d x %s\n", byRule[r], r)
	}
}

func verdict(ok bool) string {
	if ok {
		return "conserved"
	}
	return "VIOLATED"
}

func runDiff(w io.Writer, aDir, bDir string, asJSON bool) (int, error) {
	ra, err := flight.LoadTree(aDir)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", aDir, err)
	}
	rb, err := flight.LoadTree(bDir)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", bDir, err)
	}
	rows := flight.Diff(flight.Audit(ra), flight.Audit(rb))
	if asJSON {
		if rows == nil {
			rows = []flight.DiffRow{}
		}
		if err := json.NewEncoder(w).Encode(rows); err != nil {
			return 0, err
		}
	} else if len(rows) == 0 {
		fmt.Fprintln(w, "recordings agree on every audited field")
	} else {
		fmt.Fprintf(w, "%-16s %-24s %-24s\n", "field", aDir, bDir)
		for _, r := range rows {
			fmt.Fprintf(w, "%-16s %-24s %-24s\n", r.Field, r.A, r.B)
		}
	}
	if len(rows) > 0 {
		return 2, nil
	}
	return 0, nil
}
