package partition

import (
	"samrpart/internal/capacity"
	"samrpart/internal/geom"
	"samrpart/internal/sfc"
)

// SFCHetero combines the two production schemes: boxes are ordered along a
// space-filling curve (ACEComposite's locality, which keeps neighboring
// boxes on the same node and cuts ghost traffic) but nodes are filled to
// capacity-proportional quotas (ACEHeterogeneous' system sensitivity).
// This is the natural synthesis the paper's discussion points toward when
// it attributes the default scheme's only advantage to locality.
//
// Because the SFC order interleaves small and large boxes, splitting is
// somewhat more frequent than under ACEHeterogeneous' sorted order; the
// same constraints bound the effect.
type SFCHetero struct {
	constraints Constraints
	curve       sfc.Curve
	refineRatio int
}

// NewSFCHetero returns the locality-preserving system-sensitive
// partitioner.
func NewSFCHetero(refineRatio int) *SFCHetero {
	return &SFCHetero{
		constraints: defaultConstraints(),
		curve:       sfc.Hilbert{},
		refineRatio: refineRatio,
	}
}

// Name implements Partitioner.
func (s *SFCHetero) Name() string { return "SFCHetero" }

// Partition implements Partitioner.
func (s *SFCHetero) Partition(boxes geom.BoxList, caps []float64, work WorkFunc) (*Assignment, error) {
	if err := checkInputs(boxes, caps); err != nil {
		return nil, err
	}
	if err := s.constraints.validate(); err != nil {
		return nil, err
	}
	total := 0.0
	for _, b := range boxes {
		total += work(b)
	}
	quotas := capacity.Shares(caps, total)
	ordered := boxes.Clone()
	if len(ordered) > 0 {
		domain, err := baseFootprint(ordered, s.refineRatio)
		if err != nil {
			return nil, err
		}
		mapper := sfc.NewMapper(s.curve, domain, s.refineRatio)
		mapper.Sort(ordered)
	}
	// Nodes in natural order: consecutive curve segments go to consecutive
	// nodes, preserving contiguity.
	nodeOrder := make([]int, len(caps))
	for i := range nodeOrder {
		nodeOrder[i] = i
	}
	return fillQuotas(ordered, nodeOrder, quotas, work, s.constraints), nil
}

// baseFootprint returns the level-0 bounding box of a multi-level list.
func baseFootprint(boxes geom.BoxList, refineRatio int) (geom.Box, error) {
	base := boxes.Clone()
	for i := range base {
		b := base[i]
		for l := b.Level; l > 0; l-- {
			b = b.Coarsen(refineRatio)
		}
		base[i] = b
	}
	domain, err := base.BoundingBox()
	if err != nil {
		return geom.Box{}, err
	}
	domain.Level = 0
	return domain, nil
}
