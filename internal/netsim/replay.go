package netsim

import (
	"cmp"
	"fmt"
	"path/filepath"

	"lmbalance/internal/flight"
	"lmbalance/internal/wire"
)

// Record opens one flight recorder per node for Config.Flight: with an
// empty root in memory, else node i's under root/node-i, the layout
// flight.LoadTree reads.
func Record(root string, n int) ([]*flight.Recorder, error) {
	recs := make([]*flight.Recorder, n)
	for i := range recs {
		dir := ""
		if root != "" {
			dir = filepath.Join(root, fmt.Sprintf("node-%d", i))
		}
		rec, err := flight.Open(flight.Options{Dir: dir, Node: i})
		if err != nil {
			for _, rec := range recs[:i] {
				rec.Close()
			}
			return nil, err
		}
		recs[i] = rec
	}
	return recs, nil
}

// replayed is what a recording must reproduce of one node's Stats.
type replayed struct {
	id                                          int
	initiated, resolved, aborted, freezeExpired int64
	handshakeSent                               int64
	final                                       flight.Final
}

// Replay closes the recorders of a world whose Result is res, loads each
// one's recording and re-executes the recording through flight.Audit. A
// world's recording is a pure function of its Config, so the replay must
// reproduce res: Replay fails unless no record was dropped, none diverged
// from the re-executed machine and none went unverified, every node's
// final accounting was recorded, the total load and the conservation
// verdict are res's, each node's id, protocol counts, handshake frames
// sent and final accounting are its Stats, and a VD trajectory
// re-derives.
func Replay(res *Result, recs []*flight.Recorder) (*flight.Recording, *flight.AuditResult, error) {
	var err error
	for _, rec := range recs {
		err = cmp.Or(err, rec.Close())
	}
	if err != nil {
		return nil, nil, err
	}
	if len(recs) != len(res.Nodes) {
		return nil, nil, fmt.Errorf("netsim: %d recorders for %d nodes", len(recs), len(res.Nodes))
	}
	recording := &flight.Recording{}
	for i, rec := range recs {
		if d := rec.Dropped(); d != 0 {
			return nil, nil, fmt.Errorf("netsim: node %d's recorder dropped %d records", i, d)
		}
		nr, err := rec.Load()
		if err != nil {
			return nil, nil, err
		}
		recording.Nodes = append(recording.Nodes, nr)
	}
	a := flight.Audit(recording)
	if a.First != nil {
		return nil, nil, fmt.Errorf("netsim: replay: %v (of %d violations)", *a.First, len(a.Violations))
	}
	if a.FinalsSeen != len(res.Nodes) || a.TotalLoad != res.TotalLoad() || a.Conserved() != res.Conserved() {
		return nil, nil, fmt.Errorf("netsim: replay: %d finals, load %d, conserved %v; live load %d, conserved %v",
			a.FinalsSeen, a.TotalLoad, a.Conserved(), res.TotalLoad(), res.Conserved())
	}
	for i, na := range a.Nodes {
		n := &res.Nodes[i]
		live := replayed{n.ID, n.Initiated, n.Completed, n.Aborted, n.FreezeExpired, n.MsgsSent, flight.Final{
			Load: n.FinalLoad, Generated: n.Generated, Consumed: n.Consumed,
			Ingested: n.Ingested, UnitsDone: n.UnitsDone, RecordsHeld: n.RecordsHeld}}
		got := replayed{na.Node, na.Initiated, na.Resolved, na.Aborted, na.FreezeExpired, 0, *na.Final}
		for _, ev := range recording.Nodes[i].Events {
			switch ev.Msg.Kind {
			case wire.FreezeReq, wire.FreezeAck, wire.FreezeBusy, wire.Release, wire.Transfer:
				if ev.Dir == flight.DirSend {
					got.handshakeSent++
				}
			}
		}
		if na.Unverified != 0 || got != live {
			return nil, nil, fmt.Errorf("netsim: replay: node %d replayed %+v with %d records unverified, live %+v",
				i, got, na.Unverified, live)
		}
	}
	if len(a.VD) == 0 {
		return nil, nil, fmt.Errorf("netsim: replay: no VD trajectory")
	}
	return recording, a, nil
}
