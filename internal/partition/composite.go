package partition

import (
	"samrpart/internal/geom"
	"samrpart/internal/sfc"
)

// Composite is ACEComposite, the GrACE default partitioning scheme the
// paper compares against: the composite bounding-box list (all levels) is
// ordered along a space-filling curve over the base domain — preserving
// intra- and inter-level locality — and split into equal-work pieces, one
// per node, assuming homogeneous processors. Capacities are ignored by
// design; callers pass them so both partitioners share an interface, and
// they are recorded as the assignment's Ideal so the load-imbalance metric
// reflects how far an equal distribution lands from the capacity shares.
type Composite struct {
	Constraints Constraints
	// Curve orders the composite list (GrACE uses space-filling mappings;
	// Hilbert by default, Morton available for the ablation).
	Curve sfc.Curve
	// refineRatio relates hierarchy levels for the inter-level mapping.
	refineRatio int
}

// NewComposite returns the GrACE default partitioner.
func NewComposite(refineRatio int) *Composite {
	return &Composite{
		Constraints: defaultConstraints(),
		Curve:       sfc.Hilbert{},
		refineRatio: refineRatio,
	}
}

// Name implements Partitioner.
func (c *Composite) Name() string { return "ACEComposite" }

// Partition implements Partitioner.
func (c *Composite) Partition(boxes geom.BoxList, caps []float64, work WorkFunc) (*Assignment, error) {
	if err := checkInputs(boxes, caps); err != nil {
		return nil, err
	}
	if err := c.Constraints.validate(); err != nil {
		return nil, err
	}
	total := 0.0
	for _, b := range boxes {
		total += work(b)
	}
	k := len(caps)
	// Equal shares: the homogeneous assumption under evaluation.
	quotas := make([]float64, k)
	for i := range quotas {
		quotas[i] = total / float64(k)
	}
	ordered := boxes.Clone()
	if len(ordered) > 0 {
		// Order along the SFC over the level-0 footprint of the list.
		base := ordered.Clone()
		for i := range base {
			b := base[i]
			for l := b.Level; l > 0; l-- {
				b = b.Coarsen(c.refineRatio)
			}
			base[i] = b
		}
		domain, err := base.BoundingBox()
		if err != nil {
			return nil, err
		}
		domain.Level = 0
		mapper := sfc.NewMapper(c.Curve, domain, c.refineRatio)
		mapper.Sort(ordered)
	}
	nodeOrder := make([]int, k)
	for i := range nodeOrder {
		nodeOrder[i] = i
	}
	a := fillQuotas(ordered, nodeOrder, quotas, work, c.Constraints)
	// Report imbalance against the capacity shares, as the paper does when
	// comparing the two schemes on a heterogeneous cluster.
	for i := range a.Ideal {
		a.Ideal[i] = caps[i] * total
	}
	return a, nil
}
