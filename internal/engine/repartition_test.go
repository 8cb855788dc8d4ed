package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"samrpart/internal/geom"
	"samrpart/internal/partition"
	"samrpart/internal/solver"
	"samrpart/internal/transport"
)

// ghostPlanFullScan is buildGhostPlan as it stood before the halo graph: every
// owned box queries the spatial index, grows and intersects, on every build.
// The scan loop is kept verbatim as the differential reference (serial, on a
// fresh index).
func ghostPlanFullScan(v *asnView, me, ghost int, prefix string) *ghostPlan {
	a := v.Assignment
	pl := &ghostPlan{}
	idx := geom.NewIndex(a.Boxes)
	var qs geom.QueryScratch
	var hits []int
	for _, i := range v.mine {
		bi := a.Boxes[i]
		grown := bi.Grow(ghost)
		hits = idx.QueryWith(&qs, grown, hits)
		remote := false
		for _, j := range hits {
			if j == i {
				continue
			}
			bj, oj := a.Boxes[j], a.Owners[j]
			// bj feeds my halo cells grown(bi)∩bj: a local copy when I own it
			// too (the pair comes round again with the roles swapped) ...
			if oj == me {
				pl.locals = append(pl.locals, localCopy{dst: int32(i), src: int32(j), region: grown.Intersect(bj)})
				continue
			}
			// ... a receive from its owner otherwise ...
			pl.recvs = append(pl.recvs, planRegion{dstIdx: i, srcIdx: j, region: grown.Intersect(bj), peer: oj})
			remote = true
			// ... and symmetrically I feed bj's halo from bi.
			pl.sends = append(pl.sends, planRegion{dstIdx: j, srcIdx: i, region: bj.Grow(ghost).Intersect(bi), peer: oj})
		}
		if remote {
			pl.boundary = append(pl.boundary, i)
		} else {
			pl.interior = append(pl.interior, i)
		}
	}
	pl.finish(prefix)
	return pl
}

// tilesOf is SPMDConfig.tiles for a bare domain.
func tilesOf(domain geom.Box, tile int) geom.BoxList {
	return SPMDConfig{Domain: domain, TileSize: tile}.tiles()
}

// TestMemoizedGhostPlanMatchesFullScan replays a run's repartitions on one
// scratch per rank — each build recycling the plan before it, as install does
// — and holds every plan to the full-scan reference. Capacities are redrawn at
// every step, so owners swing; steps 0-2 and 7-8 partition 4-cell tiles, which
// Hetero cannot split (the standing tiling: the graph answers from cache),
// steps 3-6 partition 8-cell tiles, which it splits wherever a quota boundary
// falls — the box list changes mid-sequence, to a list of another length, to
// one that differs only in where the cuts fall, and (step 5 repeats step 3's
// capacities) back to an earlier one from a fresh copy. A graph that survived
// any of those changes would hand back another tiling's regions.
func TestMemoizedGhostPlanMatchesFullScan(t *testing.T) {
	recut := 0 // sequences in which new capacities moved the cuts of the split tiles
	for _, dom := range []geom.Box{geom.Box2(0, 0, 23, 23), geom.Box3(0, 0, 0, 15, 15, 7)} {
		for ghost := 1; ghost <= 4; ghost++ {
			for ranks := 1; ranks <= 4; ranks++ {
				for _, workers := range []int{1, 4} {
					name := fmt.Sprintf("%dD/ghost=%d/ranks=%d/workers=%d", dom.Rank, ghost, ranks, workers)
					r := rand.New(rand.NewSource(int64(dom.Rank*1000 + ghost*100 + ranks*10 + workers)))
					drawCaps := func() []float64 {
						caps, sum := make([]float64, ranks), 0.0
						for k := range caps {
							caps[k] = 0.2 + r.Float64()
							sum += caps[k]
						}
						for k := range caps {
							caps[k] /= sum
						}
						return caps
					}
					scs := make([]commScratch, ranks)
					plans := make([]*ghostPlan, ranks)
					for me := range scs {
						scs[me].workers = workers
					}
					var step3 []float64
					var lists []geom.BoxList
					for step := 0; step < 9; step++ {
						tile, caps := 4, drawCaps()
						if step >= 3 && step <= 6 {
							tile = 8
						}
						if step == 3 {
							step3 = caps
						} else if step == 5 {
							caps = step3
						}
						asn, err := partition.NewHetero().Partition(tilesOf(dom, tile), caps, partition.CellWork)
						if err != nil {
							t.Fatal(err)
						}
						lists = append(lists, asn.Boxes)
						prefix := fmt.Sprintf("e%d-", step)
						for me := 0; me < ranks; me++ {
							v := newAsnView(asn, me)
							scs[me].retired = plans[me]
							plans[me] = buildGhostPlan(v, me, ghost, prefix, &scs[me])
							if !ghostPlansEqual(plans[me], ghostPlanFullScan(v, me, ghost, prefix)) {
								t.Fatalf("%s step %d: rank %d memoized ghost plan differs from the full scan", name, step, me)
							}
						}
					}
					if !lists[0].Equal(lists[1]) || !lists[3].Equal(lists[5]) || &lists[3][0] == &lists[5][0] {
						t.Fatalf("%s: the sequence lost its standing tiling or its repeated one", name)
					}
					if lists[2].Equal(lists[3]) || lists[6].Equal(lists[7]) {
						t.Fatalf("%s: the box list never changed mid-sequence", name)
					}
					if !lists[3].Equal(lists[4]) {
						recut++
					}
				}
			}
		}
	}
	if recut < 16 {
		t.Fatalf("only %d of 64 sequences changed the cuts of a split tiling", recut)
	}
}

// migPlanIndexedScan is buildMigPlan's serial indexed scan, forced: the
// reference for the same-tiling owner diff.
func migPlanIndexedScan(old, next *asnView, me int) migPlan {
	var mp migPlan
	mp.scan(old, next, geom.NewIndex(old.Boxes), geom.NewIndex(next.Boxes), next.mine, old.mine, me)
	mp.finish()
	return mp
}

// TestSameTilingMigPlanMatchesIndexedScan holds the owner-diff migration plan
// to the indexed scan over a standing tiling with three ranks (so entries of
// two peers interleave and the peer order matters), owners redrawn five times
// on one scratch per rank: the first build of each rank, on a fresh scratch,
// must be DeepEqual to the reference (nil lists included), the later ones —
// built into recycled storage — equal entry for entry.
func TestSameTilingMigPlanMatchesIndexedScan(t *testing.T) {
	const ranks = 3
	r := rand.New(rand.NewSource(24))
	for _, tiles := range []geom.BoxList{tilesOf(geom.Box2(0, 0, 47, 47), 8), tilesOf(geom.Box3(0, 0, 0, 15, 15, 7), 4)} {
		draw := func(boxes geom.BoxList) *partition.Assignment {
			a := &partition.Assignment{Boxes: boxes, Owners: make([]int, len(boxes)), Work: make([]float64, ranks), Ideal: make([]float64, ranks)}
			for i := range boxes {
				a.Owners[i] = r.Intn(ranks)
			}
			return a
		}
		scs := make([]commScratch, ranks)
		old, retained := draw(tiles), 0
		for step := 0; step < 5; step++ {
			boxes := tiles
			if step%2 == 1 {
				boxes = tiles.Clone() // same tiling recognised by content
			}
			next := draw(boxes)
			for me := 0; me < ranks; me++ {
				ov, nv := newAsnView(old, me), newAsnView(next, me)
				got, want := buildMigPlan(ov, nv, me, &scs[me]), migPlanIndexedScan(ov, nv, me)
				if len(want.sends) == 0 || len(want.recvs) == 0 || peerSpans(nil, want.sends, "")[0].hi == len(want.sends) {
					t.Fatalf("step %d rank %d: the reference plan does not involve both peers", step, me)
				}
				retained += len(want.retained)
				if step == 0 && !reflect.DeepEqual(got, want) {
					t.Fatalf("rank %d: owner-diff migration plan differs from the indexed scan", me)
				}
				if !slices.Equal(got.sends, want.sends) || !slices.Equal(got.recvs, want.recvs) || !slices.Equal(got.retained, want.retained) {
					t.Fatalf("step %d rank %d: owner-diff migration plan differs from the indexed scan", step, me)
				}
			}
			old = next
		}
		if retained == 0 {
			t.Fatal("no box was ever retained")
		}
	}
}

// swingConfig is a 2-rank standing tiling — tiles as small as the partitioner
// may leave a box, so it cannot split them — whose capacities flip between
// 70/30 and 30/70 at every repartition: adapt-migrate's shape. Hetero hands
// the smaller rank the head of the box order, so nearly every box changes
// hands.
func swingConfig(domain geom.Box, tile int, k solver.Kernel) SPMDConfig {
	return SPMDConfig{
		Domain: domain, TileSize: tile, Kernel: k,
		BaseGrid:    solver.UniformGrid(1.0 / 64),
		Partitioner: &partition.Hetero{Constraints: partition.Constraints{MinBoxSize: tile}},
		CapsAt: func(iter int) []float64 {
			if iter/2%2 == 1 {
				return []float64{0.3, 0.7}
			}
			return []float64{0.7, 0.3}
		},
		Iterations: 1, RepartEvery: 2, dt: 1e-3,
	}
}

// TestInstallRefillsSparesOffTheStepPath: once the free list is warm — from
// the third repartition on — install leaves every owned slot a spare, so the
// step after a repartition allocates no patch inside the compute window that
// stepPS, the straggler detector's sample, times. The step is driven piece by
// piece (exchange on both ranks, then each rank's two compute loops alone on
// this goroutine) so the malloc count brackets exactly those loops.
func TestInstallRefillsSparesOffTheStepPath(t *testing.T) {
	if race {
		t.Skip("the race detector allocates on its own")
	}
	k := solver.NewAdvection2D(1.0, 0.5, 0.4, 0.6, 0.1)
	cfg := swingConfig(geom.Box2(0, 0, 63, 63), 4, k)
	eps, err := transport.NewGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	runs := newTestRuns(t, eps, cfg)
	var before, after runtime.MemStats
	for iter, reparts := 0, 0; reparts < 6; iter++ {
		fresh := iter > 0 && iter%cfg.RepartEvery == 0
		if fresh {
			eachRank(t, 2, func(rank int) error { return runs[rank].repartitionNow(iter) })
			reparts++
		}
		eachRank(t, 2, func(rank int) error {
			r := runs[rank]
			if err := r.plan.postSends(r.ep, r.cur, r.res); err != nil {
				return err
			}
			return r.plan.finishRecvs(r.ep, r.cur, r.res)
		})
		for _, r := range runs {
			if fresh && reparts >= 3 {
				for _, i := range r.assign.mine {
					if r.spare[i] == nil {
						t.Fatalf("repartition %d, rank %d: install left slot %d without a spare", reparts, r.me(), i)
					}
				}
			}
			runtime.ReadMemStats(&before)
			for _, i := range r.plan.interior {
				stepPatch(k, cfg.BaseGrid, r.cur, r.spare, i, cfg.dt)
			}
			for _, i := range r.plan.boundary {
				stepPatch(k, cfg.BaseGrid, r.cur, r.spare, i, cfg.dt)
			}
			runtime.ReadMemStats(&after)
			if n := after.Mallocs - before.Mallocs; fresh && reparts >= 3 && n != 0 {
				t.Fatalf("repartition %d, rank %d: the compute loops of the next step allocate %d times", reparts, r.me(), n)
			}
		}
	}
}

// TestRepartitionAllocatesNoPatchOrPlan is the tier-1 gate on what a
// repartition of a standing tiling may allocate: after two warm-up swings
// (four repartitions, stepped in between so spares are in play) one
// repartitionNow on both ranks of a channel group — whose warm wire
// recycles its buffers — stays within a quarter of the field bytes the
// ranks own. A patch buffer per arriving box alone is most of those bytes
// (nearly every box arrives), and the ghost plan's local-copy list about as
// much again; what is left is the partitioner's own working set, a few
// hundred bytes per box.
func TestRepartitionAllocatesNoPatchOrPlan(t *testing.T) {
	if race {
		t.Skip("the race detector allocates on its own")
	}
	k := solver.NewAdvection3D(1.0, 0.5, 0.25, 0.4, 0.5, 0.25, 0.1)
	cfg := swingConfig(geom.Box3(0, 0, 0, 31, 31, 31), 8, k)
	runs := newTestRuns(t, chanGroup(t, 2), cfg)
	iter := 0
	repartition := func() {
		iter += cfg.RepartEvery
		eachRank(t, 2, func(rank int) error { return runs[rank].repartitionNow(iter) })
	}
	step := func() {
		eachRank(t, 2, func(rank int) error { return runs[rank].step(iter + 1) })
	}
	step()
	for warm := 0; warm < 4; warm++ {
		repartition()
		step()
	}
	var fieldBytes int64
	for _, r := range runs {
		for _, i := range r.assign.mine {
			fieldBytes += r.cur[i].Bytes()
		}
	}
	moved := runs[0].res.MigratedBytes
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	repartition()
	runtime.ReadMemStats(&after)
	if runs[0].res.MigratedBytes == moved || len(runs[0].assign.Boxes) != len(runs[0].tiles) {
		t.Fatal("the measured repartition moved nothing, or split the tiling")
	}
	if got, limit := int64(after.TotalAlloc-before.TotalAlloc), fieldBytes/4; got > limit {
		t.Fatalf("one repartition of a standing tiling allocates %d B, want <= %d B (a quarter of the %d B of owned fields)", got, limit, fieldBytes)
	} else {
		t.Logf("one repartition allocates %d B of a %d B budget", got, limit)
	}
	step() // the tiling still steps after the measured swing
}
