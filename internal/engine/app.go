// Package engine is the adaptive runtime that ties the reproduction
// together — the role GrACE's runtime system plays in the paper. It owns
// the grid hierarchy, asks the application for error flags, regrids,
// senses the cluster through the monitor, computes relative capacities,
// invokes the partitioner, and charges compute / communication / sensing /
// regridding costs to the virtual cluster clock. A separate SPMD runner
// (spmd.go) executes small problems genuinely in parallel over the
// transport layer.
package engine

import (
	"fmt"
	"math"

	"samrpart/internal/amr"
	"samrpart/internal/geom"
	"samrpart/internal/hdda"
	"samrpart/internal/parallel"
	"samrpart/internal/sfc"
	"samrpart/internal/solver"
)

// Application supplies the workload: error flags that drive regridding,
// optional real numerics, and the cost coefficients of the time model.
type Application interface {
	// Name identifies the application.
	Name() string
	// FlopsPerCell is the floating-point work of one cell update.
	FlopsPerCell() float64
	// BytesPerCell is the ghost/redistribution traffic per cell.
	BytesPerCell() float64
	// Flags returns per-level error flags for the current hierarchy state
	// at the given coarse iteration (nil entries mean no flags).
	Flags(h *amr.Hierarchy, iter int) ([]*amr.FlagField, error)
	// Advance performs one coarse time step of real numerics, if the
	// application carries solution data (no-op otherwise).
	Advance(h *amr.Hierarchy, iter int) error
	// Regridded tells the application the hierarchy changed so it can
	// rebuild its solution storage.
	Regridded(h *amr.Hierarchy) error
}

// WorkerConfigurable is implemented by applications whose patch loops can
// fan out over an intra-node worker pool. The engine forwards its Workers
// knob to any application implementing it.
type WorkerConfigurable interface {
	// SetWorkers sets the worker count: 0 = all cores, 1 = serial.
	SetWorkers(n int)
}

// feature is one moving refinement driver of the synthetic application: a
// planar front at x = Pos + Speed·iter (level-0 cells) that flags a slab of
// half-width HalfWidth around itself, reflecting off the domain ends.
// Pulsate modulates the width over iterations so the total workload varies
// regrid to regrid, as it does in the paper's figures.
type feature struct {
	pos       float64
	speed     float64
	halfWidth float64
	pulsate   float64
}

// positionAt returns the feature position at an iteration, bouncing inside
// [0, nx).
func (f feature) positionAt(iter int, nx float64) float64 {
	if nx <= 1 {
		return 0
	}
	p := f.pos + f.speed*float64(iter)
	period := 2 * (nx - 1)
	p = math.Mod(p, period)
	if p < 0 {
		p += period
	}
	if p > nx-1 {
		p = period - p
	}
	return p
}

// widthAt returns the flag half-width at an iteration.
func (f feature) widthAt(iter int) float64 {
	w := f.halfWidth
	if f.pulsate > 0 {
		w *= 1 + f.pulsate*math.Sin(float64(iter)/4)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// OracleApp drives regridding analytically: shock-like features sweep the
// domain and flag slabs around themselves on every level. It exercises the
// identical regrid → cluster → partition pipeline as a real solver at a
// tiny fraction of the cost, which is what lets the benchmark harness run
// the paper's 32-node, hundreds-of-iterations experiments. The RM3D
// configuration models the paper's kernel: one fast shock plus a slower
// interface feature in a 128x32x32 domain.
type OracleApp struct {
	// features drive refinement.
	features []feature
	// flops and Bytes are the time-model coefficients (per cell update and
	// per ghost cell respectively).
	flops float64
	Bytes float64
	name  string
}

// NewRM3DOracle models the paper's Richtmyer–Meshkov kernel on a 128x32x32
// base grid: a fast shock front and a slower, wider interface feature.
func NewRM3DOracle() *OracleApp {
	return &OracleApp{
		features: []feature{
			{pos: 20, speed: 1.5, halfWidth: 3, pulsate: 0.25},
			{pos: 58, speed: 0.4, halfWidth: 5, pulsate: 0.4},
		},
		flops: 350, // matches solver.Euler3D.FlopsPerCell
		Bytes: 40,  // 5 fields x 8 bytes
		name:  "rm3d-oracle",
	}
}

// Name implements Application.
func (o *OracleApp) Name() string {
	if o.name == "" {
		return "oracle"
	}
	return o.name
}

// FlopsPerCell implements Application.
func (o *OracleApp) FlopsPerCell() float64 { return o.flops }

// BytesPerCell implements Application.
func (o *OracleApp) BytesPerCell() float64 { return o.Bytes }

// Flags implements Application.
func (o *OracleApp) Flags(h *amr.Hierarchy, iter int) ([]*amr.FlagField, error) {
	cfg := h.Config()
	nx := float64(cfg.Domain.Size(0))
	nLevels := h.NumLevels()
	if nLevels > cfg.MaxLevels-1 {
		nLevels = cfg.MaxLevels - 1
	}
	flags := make([]*amr.FlagField, 0, nLevels)
	for l := 0; l < nLevels || l == 0; l++ {
		if l >= cfg.MaxLevels-1 {
			break
		}
		f := amr.NewFlagField(h.LevelDomain(l))
		ratio := 1.0
		for i := 0; i < l; i++ {
			ratio *= float64(cfg.RefineRatio)
		}
		levelBoxes := h.Level(l)
		for _, feat := range o.features {
			pos := feat.positionAt(iter, nx) * ratio
			// Features sharpen with level: the flagged slab narrows so
			// refined regions nest inside coarser ones.
			hw := feat.widthAt(iter) * ratio / float64(l+1)
			lo := int(pos - hw)
			hi := int(pos + hw)
			slab := h.LevelDomain(l)
			slab.Lo[0] = lo
			slab.Hi[0] = hi
			slab = slab.Intersect(h.LevelDomain(l))
			if slab.Empty() {
				continue
			}
			// Clip to existing level-l boxes (level 0 covers the domain).
			for _, b := range levelBoxes {
				piece := slab.Intersect(b)
				if piece.Empty() {
					continue
				}
				forEachCell(piece, func(pt geom.Point) { f.Set(pt) })
			}
		}
		flags = append(flags, f)
	}
	return flags, nil
}

// Advance implements Application (no solution data to advance).
func (o *OracleApp) Advance(h *amr.Hierarchy, iter int) error { return nil }

// Regridded implements Application.
func (o *OracleApp) Regridded(h *amr.Hierarchy) error { return nil }

// forEachCell visits every cell of a box.
func forEachCell(b geom.Box, fn func(pt geom.Point)) {
	var pt geom.Point
	switch b.Rank {
	case 1:
		for x := b.Lo[0]; x <= b.Hi[0]; x++ {
			fn(geom.Point{x})
		}
	case 2:
		for y := b.Lo[1]; y <= b.Hi[1]; y++ {
			pt[1] = y
			for x := b.Lo[0]; x <= b.Hi[0]; x++ {
				pt[0] = x
				fn(pt)
			}
		}
	default:
		for z := b.Lo[2]; z <= b.Hi[2]; z++ {
			pt[2] = z
			for y := b.Lo[1]; y <= b.Hi[1]; y++ {
				pt[1] = y
				for x := b.Lo[0]; x <= b.Hi[0]; x++ {
					pt[0] = x
					fn(pt)
				}
			}
		}
	}
}

// SimApp carries real solution data: one patch per hierarchy box, advanced
// by a solver kernel with Berger–Oliger subcycling, halo exchange,
// prolongation and restriction. Flags come from the kernel's error
// estimator, so refinement follows the physics.
type SimApp struct {
	kernel solver.Kernel
	// baseGrid is the level-0 cell geometry.
	baseGrid solver.Grid
	// threshold is the error-estimator flag threshold.
	threshold float64
	// workers is the intra-node worker count for patch-level parallelism:
	// 0 fans out over all cores (GOMAXPROCS), 1 runs serially. Any worker
	// count produces bit-identical solutions — per-patch tasks write only
	// their own patch, and reductions fold in deterministic index order.
	workers int

	// patches is the HDDA holding one solution patch per hierarchy box —
	// the GrACE layering: application grid objects on the hierarchical
	// distributed dynamic array substrate.
	patches *hdda.Array[*amr.Patch]

	// spares holds retired per-box patches for double buffering: stepLevel
	// writes into the spare and retires the previous patch, so steady-state
	// stepping allocates nothing. Reset on regrid (boxes change shape).
	spares map[geom.Box]*amr.Patch

	// Reusable prefetch buffers for the parallel sections (patch pointers
	// are gathered serially because the HDDA directory is not
	// goroutine-safe; the parallel tasks then touch only these slices).
	curBuf, nextBuf, auxBuf []*amr.Patch
	haloBuf, parentBuf      []*amr.Patch
}

// NewSimApp builds a kernel-backed application.
func NewSimApp(k solver.Kernel, baseGrid solver.Grid, threshold float64) *SimApp {
	return &SimApp{kernel: k, baseGrid: baseGrid, threshold: threshold}
}

// SetWorkers implements WorkerConfigurable.
func (s *SimApp) SetWorkers(n int) { s.workers = n }

// Name implements Application.
func (s *SimApp) Name() string { return s.kernel.Name() }

// FlopsPerCell implements Application.
func (s *SimApp) FlopsPerCell() float64 { return s.kernel.FlopsPerCell() }

// BytesPerCell implements Application.
func (s *SimApp) BytesPerCell() float64 { return float64(s.kernel.NumFields() * 8) }

// grid returns the cell geometry of a level.
func (s *SimApp) grid(h *amr.Hierarchy, level int) solver.Grid {
	g := s.baseGrid
	for l := 0; l < level; l++ {
		g = g.Refined(h.Config().RefineRatio)
	}
	return g
}

// ExportPatches implements Checkpointer: a snapshot of all solution
// patches keyed by box.
func (s *SimApp) ExportPatches() map[geom.Box]*amr.Patch {
	out := map[geom.Box]*amr.Patch{}
	if s.patches == nil {
		return out
	}
	s.patches.Range(func(b geom.Box, p *amr.Patch) bool {
		out[b] = p
		return true
	})
	return out
}

// ImportPatches implements Checkpointer: replace the solution storage with
// the given patches (used when restoring a checkpoint; the hierarchy must
// be restored separately before the next Regridded call).
func (s *SimApp) ImportPatches(patches map[geom.Box]*amr.Patch, domain geom.Box, refineRatio int) {
	space := hdda.NewIndexSpace(sfc.Hilbert{}, domain, refineRatio)
	s.patches = hdda.NewArray[*amr.Patch](space)
	s.spares = nil
	for b, p := range patches {
		s.patches.Put(b, p)
	}
}

// Patch exposes the solution patch stored for a box (tests and examples).
func (s *SimApp) Patch(b geom.Box) (*amr.Patch, bool) {
	if s.patches == nil {
		return nil, false
	}
	return s.patches.Get(b)
}

// patch returns the stored patch or an error naming the box.
func (s *SimApp) patch(b geom.Box) (*amr.Patch, error) {
	p, ok := s.patches.Get(b)
	if !ok {
		return nil, fmt.Errorf("engine: no patch for %v", b)
	}
	return p, nil
}

// Regridded implements Application: (re)build patch storage for the new
// hierarchy, initializing new patches by prolongation from the parent level
// and copying overlaps from surviving same-level patches.
func (s *SimApp) Regridded(h *amr.Hierarchy) error {
	cfg := h.Config()
	old := s.patches
	space := hdda.NewIndexSpace(sfc.Hilbert{}, cfg.Domain, cfg.RefineRatio)
	if old != nil {
		space = old.Space()
	}
	s.patches = hdda.NewArray[*amr.Patch](space)
	s.spares = nil // box set changed; retired buffers no longer match
	for l := 0; l < h.NumLevels(); l++ {
		for _, b := range h.Level(l) {
			if old != nil {
				if p, ok := old.Get(b); ok {
					s.patches.Put(b, p)
					continue
				}
			}
			p := amr.NewPatch(b, s.kernel.Ghost(), s.kernel.NumFields())
			if l == 0 {
				s.kernel.Init(p, s.grid(h, 0))
			} else {
				// Parent data first (new region), then same-level overlap
				// (finer history wins where it exists).
				for _, cb := range h.Level(l - 1) {
					if cp, ok := s.patches.Get(cb); ok {
						amr.Prolong(p, cp, cfg.RefineRatio)
					}
				}
				if old != nil {
					old.Range(func(ob geom.Box, op *amr.Patch) bool {
						if ob.Level == l {
							amr.CopyOverlap(p, op)
						}
						return true
					})
				}
			}
			s.patches.Put(b, p)
		}
	}
	return nil
}

// levelPatches gathers the stored patch of every box on a level into buf.
// Patch pointers are prefetched serially so the parallel sections below
// never touch the HDDA directory concurrently.
func (s *SimApp) levelPatches(h *amr.Hierarchy, level int, buf []*amr.Patch) ([]*amr.Patch, error) {
	boxes := h.Level(level)
	buf = buf[:0]
	for _, b := range boxes {
		p, err := s.patch(b)
		if err != nil {
			return nil, err
		}
		buf = append(buf, p)
	}
	return buf, nil
}

// Flags implements Application: run the kernel's error estimator over every
// level that can host a child. Patches flag concurrently — each patch only
// sets flags inside its own interior, and same-level interiors are disjoint,
// so the shared flag field sees no conflicting writes.
func (s *SimApp) Flags(h *amr.Hierarchy, iter int) ([]*amr.FlagField, error) {
	cfg := h.Config()
	var flags []*amr.FlagField
	for l := 0; l < h.NumLevels() && l < cfg.MaxLevels-1; l++ {
		f := amr.NewFlagField(h.LevelDomain(l))
		g := s.grid(h, l)
		// The estimator's stencil reads halo cells; refresh them first.
		s.fillHalos(h, l)
		ps, err := s.levelPatches(h, l, s.curBuf)
		if err != nil {
			return nil, err
		}
		s.curBuf = ps
		parallel.For(s.workers, len(ps), func(i int) {
			s.kernel.Flag(ps[i], g, f, s.threshold)
		})
		f.Buffer(1)
		flags = append(flags, f)
	}
	return flags, nil
}

// Advance implements Application: one coarse step with Berger–Oliger
// subcycling. The coarse dt is the stability minimum over all levels. The
// per-patch dt scans run on the worker pool; the min folds serially in
// level/box order, so the result is bit-exact for any worker count.
func (s *SimApp) Advance(h *amr.Hierarchy, iter int) error {
	cfg := h.Config()
	ratio := cfg.RefineRatio
	dt0 := math.Inf(1)
	for l := 0; l < h.NumLevels(); l++ {
		g := s.grid(h, l)
		scale := float64(amr.StepsPerCoarse(l, ratio))
		ps, err := s.levelPatches(h, l, s.curBuf)
		if err != nil {
			return err
		}
		s.curBuf = ps
		dt0 = parallel.MapReduce(s.workers, len(ps), dt0,
			func(i int) float64 { return s.kernel.MaxDT(ps[i], g) * scale },
			func(acc, dt float64) float64 { return math.Min(acc, dt) })
	}
	if math.IsInf(dt0, 1) {
		dt0 = 0
	}
	for _, l := range amr.Schedule(h.NumLevels(), ratio) {
		if err := s.stepLevel(h, l, dt0/float64(amr.StepsPerCoarse(l, ratio))); err != nil {
			return err
		}
	}
	// Restrict updated fine solutions onto their parents, finest first.
	// Coarse patches restrict concurrently: each task writes only its own
	// coarse interior and reads fine interiors nobody mutates.
	for l := h.NumLevels() - 1; l > 0; l-- {
		cps, err := s.levelPatches(h, l-1, s.curBuf)
		if err != nil {
			return err
		}
		s.curBuf = cps
		fps, err := s.levelPatches(h, l, s.auxBuf)
		if err != nil {
			return err
		}
		s.auxBuf = fps
		parallel.For(s.workers, len(cps), func(i int) {
			for _, fp := range fps {
				amr.Restrict(cps[i], fp, ratio)
			}
		})
	}
	return nil
}

// stepLevel advances every patch of one level by dt on the worker pool.
// Each task reads its own pre-fetched patch (halos already filled) and
// writes into a private double buffer, so tasks never share mutable state;
// the buffers are committed to the HDDA serially afterwards. The retired
// patch becomes the box's spare, making steady-state stepping allocation
// free.
func (s *SimApp) stepLevel(h *amr.Hierarchy, level int, dt float64) error {
	s.fillHalos(h, level)
	g := s.grid(h, level)
	boxes := h.Level(level)
	ps, err := s.levelPatches(h, level, s.curBuf)
	if err != nil {
		return err
	}
	s.curBuf = ps
	if cap(s.nextBuf) < len(boxes) {
		s.nextBuf = make([]*amr.Patch, len(boxes))
	}
	nexts := s.nextBuf[:len(boxes)]
	if s.spares == nil {
		s.spares = map[geom.Box]*amr.Patch{}
	}
	for i, b := range boxes {
		if nexts[i] = s.spares[b]; nexts[i] == nil {
			nexts[i] = amr.NewPatch(b, ps[i].Ghost, ps[i].NumFields)
		}
	}
	parallel.For(s.workers, len(boxes), func(i int) {
		s.kernel.Step(nexts[i], ps[i], g, dt)
	})
	for i, b := range boxes {
		s.spares[b] = ps[i]
		s.patches.Put(b, nexts[i])
		nexts[i] = nil
	}
	return nil
}

// fillHalos refreshes the halo cells of every patch on a level. Priority,
// lowest to highest: outflow extrapolation (physical boundary fallback),
// parent prolongation (coarse-fine boundaries), same-level neighbor copies.
// Patches fill concurrently: every task writes only its own halo shell
// (ProlongRegion is clipped to the shell; CopyOverlap from disjoint
// neighbors can only land in the halo) and reads only interiors, which no
// task mutates — so any worker count reproduces the serial fill exactly.
func (s *SimApp) fillHalos(h *amr.Hierarchy, level int) {
	ratio := h.Config().RefineRatio
	boxes := h.Level(level)
	if cap(s.haloBuf) < len(boxes) {
		s.haloBuf = make([]*amr.Patch, len(boxes))
	}
	lps := s.haloBuf[:len(boxes)]
	for i, b := range boxes {
		lps[i], _ = s.patches.Get(b)
	}
	parents := s.parentBuf[:0]
	if level > 0 {
		for _, cb := range h.Level(level - 1) {
			if cp, ok := s.patches.Get(cb); ok {
				parents = append(parents, cp)
			}
		}
	}
	s.parentBuf = parents
	parallel.For(s.workers, len(boxes), func(i int) {
		p := lps[i]
		if p == nil {
			return
		}
		solver.ApplyOutflowBC(p)
		if len(parents) > 0 && p.Ghost > 0 {
			// Coarse-fine boundary conditions, written shell-only so the
			// interior stays untouched while neighbors read it.
			var hb [2 * geom.MaxDim]geom.Box
			for _, slab := range p.AppendHaloBoxes(hb[:0]) {
				for _, cp := range parents {
					amr.ProlongRegion(p, cp, ratio, slab)
				}
			}
		}
		for j, np := range lps {
			if j == i || np == nil {
				continue
			}
			amr.CopyOverlap(p, np)
		}
	})
}
