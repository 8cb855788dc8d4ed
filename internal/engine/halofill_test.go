package engine

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"samrpart/internal/amr"
	"samrpart/internal/geom"
	"samrpart/internal/partition"
	"samrpart/internal/solver"
	"samrpart/internal/transport"
)

// extractReference and applyReference are the per-cell closure pack/unpack
// the row primitives replaced, kept verbatim as their oracle.
func extractReference(dst []float64, p *amr.Patch, region geom.Box) []float64 {
	for f := 0; f < p.NumFields; f++ {
		forEachCell(region, func(pt geom.Point) {
			dst = append(dst, p.At(f, pt))
		})
	}
	return dst
}

func applyReference(p *amr.Patch, region geom.Box, data []float64) error {
	want := int(region.Cells()) * p.NumFields
	if len(data) != want {
		return fmt.Errorf("engine: region payload has %d values, want %d", len(data), want)
	}
	i := 0
	for f := 0; f < p.NumFields; f++ {
		forEachCell(region, func(pt geom.Point) {
			p.Set(f, pt, data[i])
			i++
		})
	}
	return nil
}

// outflowCellwise and copyOverlapCellwise are the serial reference halo
// fill, one At/Set per cell and no shared code with the row fills: every
// shell cell takes the per-axis clamped interior cell, then every cell of
// src's interior inside dst's padded box is copied over.
func outflowCellwise(p *amr.Patch) {
	forEachCell(p.Padded(), func(pt geom.Point) {
		if p.Box.Contains(pt) {
			return
		}
		c := pt
		for d := 0; d < p.Box.Rank; d++ {
			c[d] = min(max(c[d], p.Box.Lo[d]), p.Box.Hi[d])
		}
		for f := 0; f < p.NumFields; f++ {
			p.Set(f, pt, p.At(f, c))
		}
	})
}

func copyOverlapCellwise(dst, src *amr.Patch) {
	forEachCell(dst.Padded().Intersect(src.Box), func(pt geom.Point) {
		for f := 0; f < dst.NumFields; f++ {
			dst.Set(f, pt, src.At(f, pt))
		}
	})
}

// haloPoison is a NaN payload no kernel produces: a halo cell still holding
// it after an exchange was never written.
var haloPoison = math.Float64frombits(0x7ff8_0000_dead_beef)

func poisonHalo(p *amr.Patch) {
	forEachCell(p.Padded(), func(pt geom.Point) {
		if !p.Box.Contains(pt) {
			for f := 0; f < p.NumFields; f++ {
				p.Set(f, pt, haloPoison)
			}
		}
	})
}

// samePatchBits compares two patches over their whole storage, halo included.
func samePatchBits(a, b *amr.Patch) error {
	for f := 0; f < a.NumFields; f++ {
		af, bf := a.Field(f), b.Field(f)
		for i := range af {
			if math.Float64bits(af[i]) != math.Float64bits(bf[i]) {
				return fmt.Errorf("box %v field %d offset %d: %v, reference %v", a.Box, f, i, af[i], bf[i])
			}
			if math.Float64bits(af[i]) == math.Float64bits(haloPoison) {
				return fmt.Errorf("box %v field %d offset %d: poison survived the exchange", a.Box, f, i)
			}
		}
	}
	return nil
}

// TestRegionPackMatchesClosures holds the row pack/unpack to the closure
// versions: same float order, same cells written, the same error on a short
// payload.
func TestRegionPackMatchesClosures(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	for trial := 0; trial < 600; trial++ {
		var box geom.Box
		if trial%2 == 0 {
			box = geom.Box2(r.Intn(9)-4, r.Intn(9)-4, 0, 0)
			box.Hi = geom.Pt2(box.Lo[0]+r.Intn(6), box.Lo[1]+r.Intn(6))
		} else {
			box = geom.Box3(r.Intn(9)-4, r.Intn(9)-4, r.Intn(9)-4, 0, 0, 0)
			box.Hi = geom.Pt3(box.Lo[0]+r.Intn(5), box.Lo[1]+r.Intn(5), box.Lo[2]+r.Intn(5))
		}
		p := amr.NewPatch(box, 1+r.Intn(2), 1+r.Intn(3))
		forEachCell(p.Padded(), func(pt geom.Point) {
			for f := 0; f < p.NumFields; f++ {
				p.Set(f, pt, r.NormFloat64())
			}
		})
		region := p.Padded()
		for d := 0; d < box.Rank; d++ {
			region.Lo[d] += r.Intn(3)
			region.Hi[d] -= r.Intn(3)
		}
		got := p.AppendRegion([]float64{7}, region)
		want := extractReference([]float64{7}, p, region)
		if len(got) != len(want) {
			t.Fatalf("trial %d: packed %d values, closures %d", trial, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d: value %d of region %v differs", trial, i, region)
			}
		}
		a := amr.NewPatch(box, p.Ghost, p.NumFields)
		b := amr.NewPatch(box, p.Ghost, p.NumFields)
		if err := apply(a, region, got[1:]); err != nil {
			t.Fatal(err)
		}
		if err := applyReference(b, region, want[1:]); err != nil {
			t.Fatal(err)
		}
		if err := samePatchBits(a, b); err != nil {
			t.Fatalf("trial %d: apply of region %v: %v", trial, region, err)
		}
		// got carries one value too many: both must refuse it, in the same words.
		e1, e2 := apply(a, region, got), applyReference(b, region, want)
		if e1 == nil || e2 == nil || e1.Error() != e2.Error() {
			t.Fatalf("trial %d: wrong-length payload: %v vs closures %v", trial, e1, e2)
		}
	}
}

// TestPackSpanFramesMatchClosures packs every outgoing halo frame of the
// halo-latency and rm3d-compute tilings (the benchmark's 2-rank SFC
// partitions) and requires the bytes a closure packer produces.
func TestPackSpanFramesMatchClosures(t *testing.T) {
	for _, tc := range []struct {
		name   string
		domain geom.Box
		tile   int
		k      solver.Kernel
	}{
		{"halo-latency", geom.Box2(0, 0, 63, 63), 8, solver.NewAdvection2D(1.0, 0.5, 0.4, 0.6, 0.1)},
		{"rm3d-compute", geom.Box3(0, 0, 0, 127, 31, 31), 16, solver.NewRichtmyerMeshkov([geom.MaxDim]float64{4, 1, 1})},
	} {
		cfg := SPMDConfig{Domain: tc.domain, TileSize: tc.tile}
		asn, err := partition.NewSFCHetero(2).Partition(cfg.tiles(), partition.UniformCaps(2), partition.CellWork)
		if err != nil {
			t.Fatal(err)
		}
		frames := 0
		for me := 0; me < 2; me++ {
			var sc commScratch
			v := newAsnView(asn, me)
			pl := buildGhostPlan(v, me, tc.k.Ghost(), "", &sc)
			cur := make([]*amr.Patch, len(asn.Boxes))
			for _, i := range v.mine {
				cur[i] = amr.NewPatch(asn.Boxes[i], tc.k.Ghost(), tc.k.NumFields())
				tc.k.Init(cur[i], solver.UniformGrid(1.0/64))
			}
			for _, span := range pl.sendPeers {
				_, _, got := sc.packSpan(pl.sends[span.lo:span.hi], cur, nil, nil, nil, nil)
				var fl []float64
				var rg []transport.FrameRegion
				for _, s := range pl.sends[span.lo:span.hi] {
					n0 := len(fl)
					fl = extractReference(fl, cur[s.srcIdx], s.region)
					rg = append(rg, frameRegion(s.dstIdx, s.srcIdx, s.region, len(fl)-n0))
				}
				if want := transport.AppendFrame(nil, rg, fl); !bytes.Equal(got, want) {
					t.Fatalf("%s rank %d -> %d: frame of %d B differs from the closure packer's %d B",
						tc.name, me, span.rank, len(got), len(want))
				}
				frames++
			}
		}
		if frames == 0 {
			t.Fatalf("%s: no frames packed", tc.name)
		}
	}
}

// scatterPartitioner deals boxes to nodes by a hash of (seed, first capacity,
// box index): pure, so every rank derives the same owners, and a capacity
// nudge reshuffles nearly every box — the worst case for anything that
// caches per-box state across a repartition.
type scatterPartitioner struct{ seed int64 }

func (scatterPartitioner) Name() string { return "scatter" }

func (s scatterPartitioner) Partition(boxes geom.BoxList, caps []float64, work partition.WorkFunc) (*partition.Assignment, error) {
	r := rand.New(rand.NewSource(s.seed ^ int64(math.Float64bits(caps[0]))))
	a := &partition.Assignment{
		Boxes: boxes, Owners: make([]int, len(boxes)),
		Work: make([]float64, len(caps)), Ideal: make([]float64, len(caps)),
	}
	for i, b := range boxes {
		a.Owners[i] = r.Intn(len(caps))
		a.Work[a.Owners[i]] += work(b)
	}
	return a, nil
}

// poisonRecycled overwrites, interior and halo, every buffer the rank holds
// that carries no live data: the free list and the spares install drew from
// it. Called after every event that moves patches onto the list, it poisons
// each recycled buffer before anything can read it — arrivals draw from what
// earlier events left on the list, spares are only written until the next
// exchange — so a cell an arrival's migration regions, a step or an exchange
// fails to overwrite surfaces as poison (or as a NaN it bred) in the
// comparison with the serial reference.
func poisonRecycled(r *spmdRun) {
	for _, p := range r.sc.free {
		p.FillAll(haloPoison)
	}
	for _, p := range r.spare {
		if p != nil {
			p.FillAll(haloPoison)
		}
	}
}

// TestHaloFillLeavesNoStaleCell guards the invariant spare reuse, patch
// retention and the patch free list rest on — an arriving patch's interior is
// wholly overwritten by its migration regions, and one exchange rewrites every
// halo cell — at plan level. Ranks with scattered owners poison every ghost
// cell of every current patch before each step, run postSends + finishRecvs,
// and must hold no poison and exactly the serial reference fill (cell-wise
// outflow, then cell-wise copies over all boxes); the reference steps into
// fresh patches while the ranks reuse spares and recycled buffers, all
// poisoned whole (poisonRecycled). The run crosses four repartitions, a
// recovery and a rejoin, so the patch slots are proven rebuilt whenever
// ownership moves and the free list is drawn from in every way it can be.
func TestHaloFillLeavesNoStaleCell(t *testing.T) {
	for _, tc := range []struct {
		name   string
		domain geom.Box
		tile   int
		k      solver.Kernel
		dt     float64
	}{
		{"muscl2d", geom.Box2(0, 0, 31, 31), 8, solver.NewMUSCLAdvection2D(1.0, 0.5, 0.4, 0.4, 0.12), 2e-3},
		{"rm3d", geom.Box3(0, 0, 0, 15, 7, 7), 4, solver.NewRichtmyerMeshkov([geom.MaxDim]float64{2, 1, 1}), 1e-3},
	} {
		for ranks := 1; ranks <= 4; ranks++ {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/ranks=%d/workers=%d", tc.name, ranks, workers), func(t *testing.T) {
					grid := solver.UniformGrid(1.0 / 32)
					cfg := SPMDConfig{
						Domain: tc.domain, TileSize: tc.tile, Kernel: tc.k, BaseGrid: grid,
						Partitioner: scatterPartitioner{seed: int64(ranks*10 + workers)},
						// A different first capacity at every iteration: each
						// (re)partition scatters the boxes afresh.
						CapsAt: func(iter int) []float64 {
							caps := partition.UniformCaps(ranks)
							caps[0] += 1e-6 * float64(iter+1)
							return caps
						},
						Iterations: 1, Workers: workers, NoAffinityRemap: true,
					}
					eps, err := transport.NewGroup(ranks)
					if err != nil {
						t.Fatal(err)
					}
					runs := newTestRuns(t, wrapFaulty(eps), cfg)
					ref := map[geom.Box]*amr.Patch{}
					initRef := func() {
						for _, b := range cfg.tiles() {
							ref[b] = amr.NewPatch(b, tc.k.Ghost(), tc.k.NumFields())
							tc.k.Init(ref[b], grid)
						}
					}
					initRef()
					exchangeAndStep := func(when string) {
						t.Helper()
						eachRank(t, len(runs), func(rank int) error {
							r := runs[rank]
							for _, i := range r.assign.mine {
								poisonHalo(r.cur[i])
							}
							if err := r.plan.postSends(r.ep, r.cur, r.res); err != nil {
								return err
							}
							return r.plan.finishRecvs(r.ep, r.cur, r.res)
						})
						for _, p := range ref {
							poisonHalo(p)
							outflowCellwise(p)
						}
						for _, dst := range ref {
							for _, src := range ref {
								if dst != src {
									copyOverlapCellwise(dst, src)
								}
							}
						}
						owned := 0
						for _, r := range runs {
							for _, i := range r.assign.mine {
								if err := samePatchBits(r.cur[i], ref[r.assign.Boxes[i]]); err != nil {
									t.Fatalf("%s, rank %d: %v", when, r.me(), err)
								}
								owned++
							}
							for _, i := range append(append([]int(nil), r.plan.interior...), r.plan.boundary...) {
								stepPatch(tc.k, grid, r.cur, r.spare, i, tc.dt)
							}
						}
						if owned != len(ref) {
							t.Fatalf("%s: ranks own %d patches, the tiling has %d", when, owned, len(ref))
						}
						for b, p := range ref {
							next := amr.NewPatch(b, p.Ghost, p.NumFields)
							tc.k.Step(next, p, grid, tc.dt)
							ref[b] = next
						}
					}
					// event runs fn on every live rank, poisons what it put up
					// for reuse, and checks two exchanges and steps after it.
					// drawn counts the current patches that came off a free list.
					drawn := 0
					event := func(when string, fn func(r *spmdRun) error) {
						t.Helper()
						listed := map[*amr.Patch]bool{}
						for _, r := range runs {
							for _, p := range r.sc.free {
								listed[p] = true
							}
						}
						eachRank(t, len(runs), func(rank int) error { return fn(runs[rank]) })
						for _, r := range runs {
							for _, i := range r.assign.mine {
								if listed[r.cur[i]] {
									drawn++
								}
							}
							poisonRecycled(r)
						}
						exchangeAndStep(when)
						exchangeAndStep(when)
					}
					exchangeAndStep("after setup")
					exchangeAndStep("after setup")
					iter := 5
					repartition := func(when string) {
						t.Helper()
						iter++
						event(when, func(r *spmdRun) error { return r.repartitionNow(iter) })
					}
					repartition("after the first repartition")
					repartition("after the second repartition")
					repartition("after the third repartition")
					if ranks == 1 {
						initRef()
						event("after the recovery", func(r *spmdRun) error { _, err := r.recoverAt(0); return err })
						return
					}
					// The last rank dies; the survivors roll back to the initial
					// condition over a fresh scatter.
					joiner := runs[ranks-1]
					runs = runs[:ranks-1]
					initRef()
					event("after the recovery", func(r *spmdRun) error {
						r.alive[ranks-1] = false
						_, err := r.recoverAt(0)
						return err
					})
					// It asks back in holding nothing but garbage, and the
					// survivors admit it: one more scatter, now with a pure
					// receiver that draws every buffer it can from its list.
					for _, p := range joiner.cur {
						if p != nil {
							p.FillAll(haloPoison)
						}
					}
					poisonRecycled(joiner)
					runs = append(runs, joiner)
					event("after the rejoin", func(r *spmdRun) error {
						if r == joiner {
							_, err := r.rejoin()
							return err
						}
						return r.admit(iter, []int{ranks - 1})
					})
					repartition("after the rejoin's repartition")
					if drawn == 0 {
						t.Fatal("no arriving box ever drew a recycled buffer: the free list went untested")
					}
				})
			}
		}
	}
}

// haloFill sets up the halo-latency tiling (64 8x8 tiles, 2 ranks) over eps
// with the pooled buffers already sized. The returned run performs n halo
// exchanges — postSends + finishRecvs — on both ranks: rank 1 keeps pace on
// its own goroutine while rank0 is handed step, one exchange of rank 0, to
// call n times.
func haloFill(t testing.TB, eps []transport.Endpoint) (run func(n int, rank0 func(step func()))) {
	runs := newTestRuns(t, eps, SPMDConfig{
		Domain: geom.Box2(0, 0, 63, 63), TileSize: 8,
		Kernel:      solver.NewAdvection2D(1.0, 0.5, 0.4, 0.6, 0.1),
		BaseGrid:    solver.UniformGrid(1.0 / 64),
		Partitioner: partition.NewSFCHetero(2),
		CapsAt:      func(int) []float64 { return partition.UniformCaps(2) },
		Iterations:  1,
	})
	exchange := func(r *spmdRun) error {
		if err := r.plan.postSends(r.ep, r.cur, r.res); err != nil {
			return err
		}
		return r.plan.finishRecvs(r.ep, r.cur, r.res)
	}
	run = func(n int, rank0 func(step func())) {
		peer := make(chan error, 1)
		go func() {
			for i := 0; i < n; i++ {
				if err := exchange(runs[1]); err != nil {
					peer <- err
					return
				}
			}
			peer <- nil
		}()
		rank0(func() {
			if err := exchange(runs[0]); err != nil {
				t.Fatal(err)
			}
		})
		if err := <-peer; err != nil {
			t.Fatal(err)
		}
	}
	run(2, func(step func()) { step(); step() })
	return run
}

// haloGroups are the transports the halo fill is measured over: both
// built-in ones, whose warm exchanges recycle every buffer they touch.
var haloGroups = []struct {
	name  string
	group func(testing.TB, int) []transport.Endpoint
}{
	{"chan", chanGroup},
	{"tcp", tcpGroup},
}

// BenchmarkHaloFill measures rank 0's halo exchange over each transport.
func BenchmarkHaloFill(b *testing.B) {
	for _, tc := range haloGroups {
		b.Run(tc.name, func(b *testing.B) {
			run := haloFill(b, tc.group(b, 2))
			b.ReportAllocs()
			b.ResetTimer()
			run(b.N, func(step func()) {
				for i := 0; i < b.N; i++ {
					step()
				}
			})
		})
	}
}

// TestHaloFillAllocatesNothing holds both ranks' steady-state exchange —
// the engine's pack and fill and the transport's send, delivery and
// receive — to zero allocations, over each transport.
func TestHaloFillAllocatesNothing(t *testing.T) {
	const steps = 100
	for _, tc := range haloGroups {
		t.Run(tc.name, func(t *testing.T) {
			var allocs float64
			// AllocsPerRun warms up with one extra call.
			haloFill(t, tc.group(t, 2))(steps+1, func(step func()) {
				allocs = testing.AllocsPerRun(steps, step)
			})
			if allocs != 0 {
				t.Errorf("halo exchange allocates %.1f times per step", allocs)
			}
		})
	}
}
