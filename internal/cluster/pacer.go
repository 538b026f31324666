package cluster

import "fmt"

// PaceMode selects whether a node holds back its own initiations. The
// paper's node initiates whenever its trigger fires; the only pacing
// left is an optional constant floor between a node's initiations
// (Config.MinInitGap), kept for the runs that still set it.
type PaceMode int

const (
	// PaceFixed is the zero value: MinInitGap, when positive, is a
	// constant wall-clock floor between a node's own initiations; with
	// MinInitGap zero there is no pacing at all.
	PaceFixed PaceMode = iota
	// PaceOff disables pacing entirely, even with MinInitGap set.
	PaceOff
)

func (m PaceMode) String() string {
	switch m {
	case PaceFixed:
		return "fixed"
	case PaceOff:
		return "off"
	}
	return fmt.Sprintf("PaceMode(%d)", int(m))
}

// ParsePaceMode parses the -pace flag values.
func ParsePaceMode(s string) (PaceMode, error) {
	switch s {
	case "fixed":
		return PaceFixed, nil
	case "off":
		return PaceOff, nil
	}
	return PaceFixed, fmt.Errorf("unknown pace mode %q (off, fixed)", s)
}
