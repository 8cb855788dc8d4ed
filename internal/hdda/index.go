package hdda

import (
	"fmt"

	"samrpart/internal/geom"
	"samrpart/internal/sfc"
)

// key identifies a patch in the hierarchical index space: the refinement
// level and the space-filling-curve index of the patch on the base level's
// lattice. Packed keys preserve SFC ordering within a level.
type key struct {
	Level int
	Index uint64
}

// levelBits reserves the top bits of a packed key for the level so keys sort
// by (level, index).
const levelBits = 4

// maxLevel is the largest refinement level representable in a packed key.
const maxLevel = 1<<levelBits - 1

// packed returns the key as a single uint64 ordered by (level, index).
func (k key) packed() uint64 {
	if k.Level < 0 || k.Level > maxLevel {
		panic(fmt.Sprintf("hdda: level %d out of range", k.Level))
	}
	return uint64(k.Level)<<(64-levelBits) | k.Index&(1<<(64-levelBits)-1)
}

// IndexSpace maps boxes of an adaptive grid hierarchy to Keys using a
// space-filling curve over the level-0 domain.
type IndexSpace struct {
	mapper *sfc.Mapper
}

// NewIndexSpace builds the index space for a level-0 domain.
func NewIndexSpace(curve sfc.Curve, domain geom.Box, refineRatio int) *IndexSpace {
	return &IndexSpace{mapper: sfc.NewMapper(curve, domain, refineRatio)}
}

// keyFor returns the hierarchical key of a box.
func (s *IndexSpace) keyFor(b geom.Box) key {
	return key{Level: b.Level, Index: s.mapper.BoxIndex(b)}
}
