package amr

import (
	"fmt"

	"samrpart/internal/geom"
)

// Config describes the shape of an adaptive grid hierarchy.
type Config struct {
	// Domain is the level-0 computational domain (the base grid).
	Domain geom.Box
	// RefineRatio is the index-space factor between successive levels.
	RefineRatio int
	// MaxLevels caps the hierarchy depth (1 = unigrid). The paper's RM3D
	// kernel uses 3 levels of factor-2 refinement.
	MaxLevels int
	// NestingBuffer is the number of level-l cells a level l+1 boundary
	// must stay inside level l's interior (proper nesting margin).
	NestingBuffer int
	// Cluster configures the Berger–Rigoutsos step of regridding.
	Cluster ClusterOptions
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Domain.Empty() {
		return fmt.Errorf("amr: empty domain")
	}
	if c.Domain.Level != 0 {
		return fmt.Errorf("amr: domain must be tagged level 0, got %d", c.Domain.Level)
	}
	if c.RefineRatio < 2 {
		return fmt.Errorf("amr: refine ratio %d < 2", c.RefineRatio)
	}
	if c.MaxLevels < 1 {
		return fmt.Errorf("amr: max levels %d < 1", c.MaxLevels)
	}
	if c.NestingBuffer < 0 {
		return fmt.Errorf("amr: negative nesting buffer")
	}
	return c.Cluster.validate()
}

// Hierarchy is the dynamic adaptive grid hierarchy of the Berger–Oliger
// scheme: level 0 covers the whole domain; each finer level is a list of
// boxes properly nested inside the next coarser level.
type Hierarchy struct {
	cfg    Config
	levels []geom.BoxList
}

// New creates a hierarchy containing only the base level.
func New(cfg Config) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Hierarchy{
		cfg:    cfg,
		levels: []geom.BoxList{{cfg.Domain}},
	}, nil
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// NumLevels returns the number of currently existing levels (>= 1).
func (h *Hierarchy) NumLevels() int { return len(h.levels) }

// Level returns the box list of level l (empty if the level does not exist).
func (h *Hierarchy) Level(l int) geom.BoxList {
	if l < 0 || l >= len(h.levels) {
		return nil
	}
	return h.levels[l].Clone()
}

// AllBoxes returns every component-grid box across all levels — the
// bounding-box list GrACE hands to the partitioner at each regrid.
func (h *Hierarchy) AllBoxes() geom.BoxList {
	var out geom.BoxList
	for _, lvl := range h.levels {
		out = append(out, lvl...)
	}
	return out
}

// workOf returns the computational load of a box for one coarse time step:
// its cell count times the number of sub-steps its level takes per coarse
// step (refined grids have more cells AND smaller time steps, the space-time
// weighting the paper highlights).
func workOf(b geom.Box, refineRatio int) int64 {
	w := b.Cells()
	for l := 0; l < b.Level; l++ {
		w *= int64(refineRatio)
	}
	return w
}

// TotalWork sums WorkOf over the whole hierarchy.
func (h *Hierarchy) TotalWork() int64 {
	var w int64
	for _, lvl := range h.levels {
		for _, b := range lvl {
			w += workOf(b, h.cfg.RefineRatio)
		}
	}
	return w
}

// LevelDomain returns the region level l may occupy: the domain refined l
// times.
func (h *Hierarchy) LevelDomain(l int) geom.Box {
	b := h.cfg.Domain
	for i := 0; i < l; i++ {
		b = b.Refine(h.cfg.RefineRatio)
	}
	return b
}

// Regrid rebuilds levels 1..MaxLevels-1 from error flags. flags[l] carries
// flagged cells on level l's index space (l = 0..NumLevels-1; missing or nil
// entries mean "no flags"). Levels are rebuilt finest-first so that proper
// nesting of level l+2 inside the new level l+1 can be enforced by flagging
// the cells under the newer, finer level.
func (h *Hierarchy) Regrid(flags []*FlagField) error {
	maxNew := h.cfg.MaxLevels - 1 // finest level index allowed
	// Determine the finest level whose flags can create/update a child.
	top := len(h.levels) - 1
	if top > maxNew-1 {
		top = maxNew - 1
	}
	newLevels := make([]geom.BoxList, len(h.levels))
	copy(newLevels, h.levels)
	// Grow the slice if regridding creates a deeper hierarchy.
	for l := top; l >= 0; l-- {
		var f *FlagField
		if l < len(flags) {
			f = flags[l]
		}
		child, err := h.buildChild(l, f, levelOrNil(newLevels, l+2))
		if err != nil {
			return err
		}
		if l+1 < len(newLevels) {
			newLevels[l+1] = child
		} else if len(child) > 0 {
			newLevels = append(newLevels, child)
		}
	}
	// Drop empty trailing levels.
	for len(newLevels) > 1 && len(newLevels[len(newLevels)-1]) == 0 {
		newLevels = newLevels[:len(newLevels)-1]
	}
	h.levels = newLevels
	return nil
}

func levelOrNil(levels []geom.BoxList, l int) geom.BoxList {
	if l < 0 || l >= len(levels) {
		return nil
	}
	return levels[l]
}

// buildChild clusters level l's flags into the new level l+1 box list,
// ensuring (a) the grandchild level (already rebuilt) stays properly nested
// and (b) the new boxes are clipped inside level l's region.
func (h *Hierarchy) buildChild(l int, f *FlagField, grandchild geom.BoxList) (geom.BoxList, error) {
	ratio := h.cfg.RefineRatio
	// Assemble the effective flag field on level l's index space.
	eff := NewFlagField(h.LevelDomain(l))
	n := 0
	if f != nil {
		f.each(f.Box, func(pt geom.Point) {
			if f.Get(pt) {
				eff.Set(pt)
				n++
			}
		})
	}
	// Proper nesting: cells under grandchild boxes (coarsened twice, grown
	// by the nesting buffer at level l+1 first) must be refined.
	for _, gb := range grandchild {
		c := gb.Coarsen(ratio).Grow(h.cfg.NestingBuffer).Coarsen(ratio)
		cc := c.Intersect(eff.Box)
		if cc.Empty() {
			continue
		}
		eff.each(cc, func(pt geom.Point) { eff.Set(pt) })
		n++
	}
	if n == 0 {
		return nil, nil
	}
	clusters, err := Cluster(eff, eff.Box, h.cfg.Cluster)
	if err != nil {
		return nil, err
	}
	// Clip clusters against level l's boxes (shrunk by the nesting buffer,
	// except level 0 whose physical boundary needs no margin) so the
	// refined children nest properly, then refine to level l+1.
	var child geom.BoxList
	parents := h.levels[l]
	for _, cl := range clusters {
		for _, pb := range parents {
			clip := pb
			if l > 0 {
				clip = clip.Grow(-h.cfg.NestingBuffer)
			}
			piece := cl.Intersect(clip)
			if piece.Empty() {
				continue
			}
			piece.Level = l
			child = append(child, piece.Refine(ratio))
		}
	}
	child = dedupeBoxes(child)
	if !child.Disjoint() {
		child = makeDisjoint(child)
	}
	// Clipping and overlap subtraction fragment the list; merge exact
	// rectangles back to keep per-box overheads down, without undoing the
	// clustering MaxSide cap (which lives in parent-level units).
	bound := 0
	if h.cfg.Cluster.MaxSide > 0 {
		bound = h.cfg.Cluster.MaxSide * ratio
	}
	child = geom.CoalesceBounded(child, bound)
	return child, nil
}

// dedupeBoxes removes exact duplicates (possible when clusters intersect
// several parent boxes identically).
func dedupeBoxes(l geom.BoxList) geom.BoxList {
	var out geom.BoxList
	for _, b := range l {
		dup := false
		for _, o := range out {
			if b.Equal(o) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, b)
		}
	}
	return out
}

// makeDisjoint rewrites the list so no two boxes overlap, subtracting later
// boxes from earlier overlaps.
func makeDisjoint(l geom.BoxList) geom.BoxList {
	var out geom.BoxList
	for _, b := range l {
		frags := geom.BoxList{b}
		for _, o := range out {
			var next geom.BoxList
			for _, fr := range frags {
				if fr.Level == o.Level && fr.Intersects(o) {
					next = append(next, fr.Subtract(o)...)
				} else {
					next = append(next, fr)
				}
			}
			frags = next
		}
		out = append(out, frags...)
	}
	return out.Filter(func(b geom.Box) bool { return !b.Empty() })
}
