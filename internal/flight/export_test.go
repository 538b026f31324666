package flight

// SegmentBytes returns each segment of r's ring in order, the open one
// last, as its medium holds it: a file's bytes or a slice in memory.
func SegmentBytes(r *Recorder) ([][]byte, error) {
	segs, err := r.ring()
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(segs))
	for i, s := range segs {
		if out[i], err = s.read(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// DecodeSegment decodes one segment's bytes as a recording's last
// segment, where a frame that runs past the end is a tear.
func DecodeSegment(p []byte) (*NodeRecording, error) {
	nr := &NodeRecording{Node: -1}
	if err := nr.decodeSegment("segment", p, true); err != nil {
		return nil, err
	}
	return nr, nil
}

// Written reports whether the recorder writes local records of kind k.
var Written = LocalKind.known
