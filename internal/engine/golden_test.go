package engine

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"samrpart/internal/amr"
	"samrpart/internal/geom"
	"samrpart/internal/solver"
)

// multiLevelGolden is the FNV-64a hash of every patch interior after the
// run in TestMultiLevelRunMatchesGolden. It changes only if the multi-level
// answer does: a change to prolongation, restriction, the coarse-fine fill,
// regrid or the kernel that moves a single bit of the solution moves it.
const multiLevelGolden = 0x9c8824fbc77dc8fd

// TestMultiLevelRunMatchesGolden runs the paper's workload shape — RM3D on
// a 3-level, ratio-2 hierarchy under Engine.Run with two workers — and
// checks the final solution against a recorded hash. The run regrids
// (fresh fine patches are filled by Prolong), fills coarse-fine halos
// (ProlongRegion) and restricts after every fine sub-cycle (Restrict), so
// it pins the inter-level operators end to end; TestWorkersBitExact* only
// compare worker counts with each other.
func TestMultiLevelRunMatchesGolden(t *testing.T) {
	hcfg := amr.Config{
		Domain:        geom.Box3(0, 0, 0, 31, 15, 15),
		RefineRatio:   2,
		MaxLevels:     3,
		NestingBuffer: 1,
		Cluster:       amr.ClusterOptions{Efficiency: 0.7, MinSide: 4, MaxSide: 16},
	}
	k := solver.NewRichtmyerMeshkov([geom.MaxDim]float64{2, 1, 1})
	app := runWithWorkers(t, k, hcfg, solver.UniformGrid(2.0/32), 0.05, 5, 2)
	patches := app.ExportPatches()
	top := 0
	for b := range patches {
		top = max(top, b.Level)
	}
	if top != 2 {
		t.Fatalf("finest level %d, want 2: the run no longer exercises three levels", top)
	}
	if got := hashInteriors(patches); got != multiLevelGolden {
		t.Fatalf("multi-level solution hash %#x, want %#x", got, uint64(multiLevelGolden))
	}
}

// hashInteriors is FNV-64a over every patch interior, boxes sorted by level
// then corner, each field's cells in z, y, x order as float64 bits.
func hashInteriors(patches map[geom.Box]*amr.Patch) uint64 {
	boxes := make([]geom.Box, 0, len(patches))
	for b := range patches {
		boxes = append(boxes, b)
	}
	sort.Slice(boxes, func(i, j int) bool {
		a, b := boxes[i], boxes[j]
		if a.Level != b.Level {
			return a.Level < b.Level
		}
		for d := geom.MaxDim - 1; d >= 0; d-- {
			if a.Lo[d] != b.Lo[d] {
				return a.Lo[d] < b.Lo[d]
			}
		}
		return false
	})
	h := fnv.New64a()
	var buf [8]byte
	for _, b := range boxes {
		p := patches[b]
		fmt.Fprintf(h, "%v@%d", b, b.Level)
		for f := 0; f < p.NumFields; f++ {
			for z := b.Lo[2]; z <= b.Hi[2]; z++ {
				for y := b.Lo[1]; y <= b.Hi[1]; y++ {
					row := p.Pencil(f, y, z)
					for x := b.Lo[0]; x <= b.Hi[0]; x++ {
						binary.LittleEndian.PutUint64(buf[:], math.Float64bits(row[p.PencilIndex(x)]))
						h.Write(buf[:])
					}
				}
			}
		}
	}
	return h.Sum64()
}
