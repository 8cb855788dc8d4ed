package amr

import (
	"fmt"
	"strings"
)

// levelStats summarizes one level of a hierarchy.
type levelStats struct {
	Level int
	Boxes int
	Cells int64
	// Work is the subcycled load (cells × ratio^level).
	Work int64
	// CoverageFrac is the fraction of the level's domain covered.
	CoverageFrac float64
	// MeanAspect is the average box aspect ratio.
	MeanAspect float64
}

// stats returns per-level statistics, the characterization data the SAMR
// partitioning literature reports (cf. the paper's reference [17]).
func (h *Hierarchy) stats() []levelStats {
	out := make([]levelStats, 0, h.NumLevels())
	for l := 0; l < h.NumLevels(); l++ {
		boxes := h.levels[l]
		s := levelStats{Level: l, Boxes: len(boxes)}
		var aspect float64
		for _, b := range boxes {
			s.Cells += b.Cells()
			s.Work += workOf(b, h.cfg.RefineRatio)
			aspect += b.AspectRatio()
		}
		if len(boxes) > 0 {
			s.MeanAspect = aspect / float64(len(boxes))
		}
		if dom := h.LevelDomain(l).Cells(); dom > 0 {
			s.CoverageFrac = float64(s.Cells) / float64(dom)
		}
		out = append(out, s)
	}
	return out
}

// String renders the stats as one line per level.
func (s levelStats) String() string {
	return fmt.Sprintf("L%d: %d boxes, %d cells (%.1f%% of level domain), work %d, aspect %.2f",
		s.Level, s.Boxes, s.Cells, s.CoverageFrac*100, s.Work, s.MeanAspect)
}

// Describe renders the whole hierarchy's statistics.
func (h *Hierarchy) Describe() string {
	var sb strings.Builder
	for _, s := range h.stats() {
		sb.WriteString(s.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
