// Package solver provides the numerical kernels that drive the AMR
// hierarchy: a 3D compressible Euler solver configured as a
// Richtmyer–Meshkov-style shock/interface problem (the paper's evaluation
// kernel), a 2D Buckley–Leverett two-phase reservoir kernel (GrACE's
// motivating application family) and scalar advection kernels for tests and
// the quickstart example.
//
// Kernels are patch-local: they advance the interior of one amr.Patch given
// filled halos, expose a CFL-stable time step, and flag cells whose local
// error estimate exceeds a threshold. The runtime (internal/engine) owns
// halo exchange, subcycling and regridding.
package solver

import (
	"samrpart/internal/amr"
	"samrpart/internal/geom"
)

// Grid carries the geometry of one refinement level: the physical cell
// width per axis.
type Grid struct {
	h [geom.MaxDim]float64
}

// UniformGrid returns a grid with the same cell width on every axis.
func UniformGrid(h float64) Grid {
	return Grid{h: [geom.MaxDim]float64{h, h, h}}
}

// Refined returns the grid of the next finer level.
func (g Grid) Refined(ratio int) Grid {
	for d := range g.h {
		g.h[d] /= float64(ratio)
	}
	return g
}

// cellCenter returns the physical coordinates of cell pt's center.
func (g Grid) cellCenter(pt geom.Point) (x, y, z float64) {
	x = (float64(pt[0]) + 0.5) * g.h[0]
	y = (float64(pt[1]) + 0.5) * g.h[1]
	z = (float64(pt[2]) + 0.5) * g.h[2]
	return
}

// Kernel is a patch-local numerical scheme.
type Kernel interface {
	// Name identifies the kernel.
	Name() string
	// Rank is the spatial dimensionality.
	Rank() int
	// NumFields is the number of conserved fields.
	NumFields() int
	// Ghost is the halo width the scheme's stencil requires.
	Ghost() int
	// Init fills a patch (interior and halo) with the initial condition.
	Init(p *amr.Patch, g Grid)
	// MaxDT returns the largest stable time step for the patch.
	MaxDT(p *amr.Patch, g Grid) float64
	// Step advances cur's interior by dt into next, reading cur's halos.
	Step(next, cur *amr.Patch, g Grid, dt float64)
	// Flag marks interior cells whose error estimate exceeds threshold.
	Flag(p *amr.Patch, g Grid, f *amr.FlagField, threshold float64)
	// FlopsPerCell estimates the floating-point work of one cell update,
	// the per-kernel constant the cluster time model scales by.
	FlopsPerCell() float64
}

// ApplyOutflowBC fills the halo of p by copying the nearest interior cell
// outward (zero-gradient/outflow boundary), for every field: every shell
// cell takes the value of the interior cell at its coordinates clamped per
// axis to p.Box, and no interior cell is written. The runtime applies it
// FIRST in every halo fill, as the lowest-priority fallback that
// prolongation, same-level copies and remote regions then overwrite; because
// it rewrites the whole shell, a patch whose halo holds stale values (a
// reused double buffer, a patch kept across a repartition) needs no clearing.
func ApplyOutflowBC(p *amr.Patch) {
	g := p.Ghost
	if g == 0 {
		return
	}
	b, pad := p.Box, p.Padded()
	sy, sz := p.Stride(1), p.Stride(2) // 0 on axes beyond the rank
	x0, x1 := g, g+b.Size(0)           // the interior x-run of a padded row
	for f := 0; f < p.NumFields; f++ {
		fd := p.Field(f)
		for z := pad.Lo[2]; z <= pad.Hi[2]; z++ {
			cz := min(max(z, b.Lo[2]), b.Hi[2])
			for y := pad.Lo[1]; y <= pad.Hi[1]; y++ {
				cy := min(max(y, b.Lo[1]), b.Hi[1])
				off := (y-pad.Lo[1])*sy + (z-pad.Lo[2])*sz
				row := fd[off : off+x1+g]
				if cy != y || cz != z {
					// A row outside the interior in y or z: its interior x-run
					// comes from the clamped (interior) row.
					src := (cy-pad.Lo[1])*sy + (cz-pad.Lo[2])*sz
					copy(row[x0:x1], fd[src+x0:src+x1])
				}
				lo, hi := row[x0], row[x1-1]
				for i := 0; i < g; i++ {
					row[i], row[x1+i] = lo, hi
				}
			}
		}
	}
}

// offsetOf exposes patch linear indexing to the kernels in this package
// without widening the amr.Patch API surface.
func offsetOf(p *amr.Patch, pt geom.Point) int {
	off := 0
	for d := 0; d < p.Box.Rank; d++ {
		off += (pt[d] - p.Padded().Lo[d]) * p.Stride(d)
	}
	return off
}

// gradientFlag is the shared error estimator: it flags interior cells where
// the normalized central-difference gradient magnitude of field f exceeds
// threshold. scale normalizes the field's dynamic range (use the expected
// max-min of the field).
func gradientFlag(p *amr.Patch, field int, scale, threshold float64, flags *amr.FlagField) {
	if scale <= 0 {
		scale = 1
	}
	fd := p.Field(field)
	p.EachInterior(func(pt geom.Point) {
		grad := 0.0
		for d := 0; d < p.Box.Rank; d++ {
			lo, hi := pt, pt
			lo[d]--
			hi[d]++
			dv := (fd[offsetOf(p, hi)] - fd[offsetOf(p, lo)]) / 2
			if dv < 0 {
				dv = -dv
			}
			grad += dv
		}
		if grad/scale > threshold {
			flags.Set(pt)
		}
	})
}
