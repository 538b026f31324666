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
