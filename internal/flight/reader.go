package flight

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"lmbalance/internal/wire"
)

// NodeRecording is one node's decoded event stream.
type NodeRecording struct {
	Node     int
	Events   []Event
	Segments int
	Bytes    int64
	// Torn reports that the final segment ended mid-record — the
	// recorder was killed between buffered writes. Everything before
	// the tear decoded cleanly.
	Torn bool
}

// Recording is a set of node streams loaded from one directory tree.
type Recording struct {
	Dir   string
	Nodes []*NodeRecording
}

// LoadDir decodes all segments of a single-node recording directory,
// in segment order. A truncated tail is tolerated only on the last
// segment (the one a crash could tear); corruption anywhere else is an
// error.
func LoadDir(dir string) (*NodeRecording, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	return loadSegments(segs)
}

// loadSegments decodes a node's segments in ring order: a file's once
// read, or the bytes a recorder in memory holds.
func loadSegments(segs []liveSeg) (*NodeRecording, error) {
	if len(segs) == 0 {
		return nil, fmt.Errorf("flight: no segments")
	}
	nr := &NodeRecording{Node: -1}
	for i, s := range segs {
		p, err := s.read()
		if err != nil {
			return nil, err
		}
		if err := nr.decodeSegment(segName(s.seq), p, i == len(segs)-1); err != nil {
			return nil, err
		}
		nr.Segments++
		nr.Bytes += int64(len(p))
	}
	for i := range nr.Events {
		nr.Events[i].Seq = i
	}
	return nr, nil
}

// read returns the segment's bytes: its file's, or those it holds in
// memory.
func (s liveSeg) read() ([]byte, error) {
	if s.path == "" {
		return s.data, nil
	}
	return os.ReadFile(s.path)
}

// decodeSegment appends the events of one segment, named name, to nr.
// tolerateTear allows a truncated record at the very end of the bytes.
func (nr *NodeRecording) decodeSegment(name string, p []byte, tolerateTear bool) error {
	h, off, err := decodeHeader(p)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if nr.Node == -1 {
		nr.Node = h.node
	} else if nr.Node != h.node {
		return fmt.Errorf("%s: segment for node %d in node %d's recording",
			name, h.node, nr.Node)
	}
	if h.codec != wire.Version {
		return fmt.Errorf("%s: recorded under wire codec v%d, this reader decodes only v%d",
			name, h.codec, wire.Version)
	}
	prevWall := h.wallRefNS
	nr.Events = slices.Grow(nr.Events, len(p)/16) // records run ~16 bytes
	for off < len(p) {
		ln, n := binary.Uvarint(p[off:])
		if n <= 0 || ln > maxRecordBody || off+n+int(ln) > len(p) {
			if tolerateTear {
				nr.Torn = true
				return nil
			}
			return fmt.Errorf("%s: truncated record at offset %d", name, off)
		}
		body := p[off+n : off+n+int(ln)]
		var ev Event
		if err := decodeRecord(body, prevWall, &ev); err != nil {
			if tolerateTear {
				nr.Torn = true
				return nil
			}
			return fmt.Errorf("%s: offset %d: %w", name, off, err)
		}
		ev.Node = nr.Node
		prevWall = ev.WallNS
		nr.Events = append(nr.Events, ev)
		off += n + int(ln)
	}
	return nil
}

// LoadTree loads a recording that is either a single node directory, a
// parent of per-node directories (node-0, node-1, ... as lbnode lays
// them out), or a snapshot directory. Any subdirectory containing
// segment files is loaded as one node; the root itself counts if it
// holds segments directly.
func LoadTree(root string) (*Recording, error) {
	ents, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	dirs := []string{root}
	for _, e := range ents {
		if e.IsDir() && e.Name() != "snapshots" {
			dirs = append(dirs, filepath.Join(root, e.Name()))
		}
	}
	rec := &Recording{Dir: root}
	for _, d := range dirs {
		segs, err := listSegments(d)
		if err != nil {
			return nil, err
		}
		if len(segs) == 0 {
			continue
		}
		nr, err := loadSegments(segs)
		if err != nil {
			return nil, err
		}
		rec.Nodes = append(rec.Nodes, nr)
	}
	if len(rec.Nodes) == 0 {
		return nil, fmt.Errorf("flight: no segments under %s", root)
	}
	sort.Slice(rec.Nodes, func(i, j int) bool { return rec.Nodes[i].Node < rec.Nodes[j].Node })
	return rec, nil
}

// Merge interleaves every node's events into one globally ordered
// stream on (wall stamp, node, per-node seq). Wall clocks across real
// machines are not perfectly synchronized; Audit therefore replays each
// node's stream on its own, in the order the node processed it, and
// never relies on cross-node order — merge order is for human timelines.
func (r *Recording) Merge() []Event {
	var total int
	for _, nr := range r.Nodes {
		total += len(nr.Events)
	}
	all := make([]Event, 0, total)
	for _, nr := range r.Nodes {
		all = append(all, nr.Events...)
	}
	slices.SortStableFunc(all, func(a, b Event) int {
		return cmp.Or(cmp.Compare(a.WallNS, b.WallNS), cmp.Compare(a.Node, b.Node), cmp.Compare(a.Seq, b.Seq))
	})
	return all
}

// WriteDir writes a synthetic single-segment recording — test fixtures
// and tamper demos. Events must already carry monotone WallNS stamps.
func WriteDir(dir string, node int, events []Event) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var wallRef int64
	if len(events) > 0 {
		wallRef = events[0].WallNS
	}
	buf := appendHeader(nil, segHeader{node: node, seq: 0, wallRefNS: wallRef, codec: wire.Version})
	prev := wallRef
	for _, ev := range events {
		var tail []byte
		switch ev.Dir {
		case DirSend:
			tail = appendTailSend(nil, ev.Peer, ev.Msg)
		case DirRecv:
			tail = wire.AppendMsg(nil, ev.Msg)
		case DirLocal:
			tail = appendTailLocal(nil, ev.Kind, ev.Op, ev.Args)
		default:
			return fmt.Errorf("flight: event %d has dir %d", ev.Seq, ev.Dir)
		}
		buf = appendRecord(buf, ev.Dir, ev.WallNS-prev, tail)
		prev = ev.WallNS
	}
	return os.WriteFile(filepath.Join(dir, segName(0)), buf, 0o644)
}
