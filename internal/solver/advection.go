package solver

import (
	"math"

	"samrpart/internal/amr"
	"samrpart/internal/geom"
)

// Advection is first-order upwind scalar advection of a Gaussian pulse with
// a constant velocity field, in 2 or 3 dimensions. It is monotone (obeys a
// discrete maximum principle), which the tests exploit.
type Advection struct {
	dim      int
	velocity [geom.MaxDim]float64
	// center and Width shape the initial Gaussian pulse (physical units).
	center [geom.MaxDim]float64
	width  float64
}

// NewAdvection2D returns a 2D advection kernel with a pulse at center moving
// with velocity (vx, vy).
func NewAdvection2D(vx, vy, cx, cy, width float64) *Advection {
	return &Advection{
		dim:      2,
		velocity: [geom.MaxDim]float64{vx, vy, 0},
		center:   [geom.MaxDim]float64{cx, cy, 0},
		width:    width,
	}
}

// NewAdvection3D returns a 3D upwind advection kernel (pulse at the given
// center, constant velocity).
func NewAdvection3D(vx, vy, vz, cx, cy, cz, width float64) *Advection {
	return &Advection{
		dim:      3,
		velocity: [geom.MaxDim]float64{vx, vy, vz},
		center:   [geom.MaxDim]float64{cx, cy, cz},
		width:    width,
	}
}

// Name implements Kernel.
func (a *Advection) Name() string { return "advection" }

// Rank implements Kernel.
func (a *Advection) Rank() int { return a.dim }

// NumFields implements Kernel.
func (a *Advection) NumFields() int { return 1 }

// Ghost implements Kernel.
func (a *Advection) Ghost() int { return 1 }

// FlopsPerCell implements Kernel.
func (a *Advection) FlopsPerCell() float64 { return 12 }

// Init implements Kernel.
func (a *Advection) Init(p *amr.Patch, g Grid) {
	fd := p.Field(0)
	w2 := a.width * a.width
	fillPadded(p, func(pt geom.Point) {
		x, y, z := g.cellCenter(pt)
		r2 := sq(x-a.center[0]) + sq(y-a.center[1])
		if a.dim == 3 {
			r2 += sq(z - a.center[2])
		}
		fd[offsetOf(p, pt)] = math.Exp(-r2 / w2)
	})
}

// MaxDT implements Kernel.
func (a *Advection) MaxDT(_ *amr.Patch, g Grid) float64 {
	sum := 0.0
	for d := 0; d < a.dim; d++ {
		sum += math.Abs(a.velocity[d]) / g.h[d]
	}
	if sum == 0 {
		return math.Inf(1)
	}
	return 0.9 / sum
}

// Step implements Kernel with a fused pencil sweep: one pass over the
// interior rows with direct upwind-neighbor indexing. Per-axis Courant
// coefficients are hoisted (dt·v/h, evaluated exactly as the reference
// expression), so the inner loop is a handful of mul/sub per cell.
func (a *Advection) Step(next, cur *amr.Patch, g Grid, dt float64) {
	src := cur.Field(0)
	dst := next.Field(0)
	box := cur.Box
	nx := box.Size(0)
	sy, sz := cur.Stride(1), cur.Stride(2)
	vx, vy, vz := a.velocity[0], a.velocity[1], a.velocity[2]
	cx := dt * vx / g.h[0]
	cy := dt * vy / g.h[1]
	cz := dt * vz / g.h[2]
	if a.dim < 3 {
		vz = 0
	}
	for z := box.Lo[2]; z <= box.Hi[2]; z++ {
		for y := box.Lo[1]; y <= box.Hi[1]; y++ {
			sb := rowBase(cur, box.Lo[0], y, z)
			db := rowBase(next, box.Lo[0], y, z)
			for i := 0; i < nx; i++ {
				off := sb + i
				v := src[off]
				acc := v
				if vx > 0 {
					acc -= cx * (v - src[off-1])
				} else if vx < 0 {
					acc -= cx * (src[off+1] - v)
				}
				if vy > 0 {
					acc -= cy * (v - src[off-sy])
				} else if vy < 0 {
					acc -= cy * (src[off+sy] - v)
				}
				if vz > 0 {
					acc -= cz * (v - src[off-sz])
				} else if vz < 0 {
					acc -= cz * (src[off+sz] - v)
				}
				dst[db+i] = acc
			}
		}
	}
}

// stepRef is the retained per-point reference implementation.
func (a *Advection) stepRef(next, cur *amr.Patch, g Grid, dt float64) {
	src := cur.Field(0)
	dst := next.Field(0)
	cur.EachInterior(func(pt geom.Point) {
		v := src[offsetOf(cur, pt)]
		acc := v
		for d := 0; d < a.dim; d++ {
			vel := a.velocity[d]
			if vel == 0 {
				continue
			}
			up := pt
			if vel > 0 {
				up[d]--
				acc -= dt * vel / g.h[d] * (v - src[offsetOf(cur, up)])
			} else {
				up[d]++
				acc -= dt * vel / g.h[d] * (src[offsetOf(cur, up)] - v)
			}
		}
		dst[offsetOf(next, pt)] = acc
	})
}

// maxDTRef mirrors MaxDT, which has no per-cell sweep to fuse.
func (a *Advection) maxDTRef(p *amr.Patch, g Grid) float64 { return a.MaxDT(p, g) }

// Flag implements Kernel.
func (a *Advection) Flag(p *amr.Patch, g Grid, f *amr.FlagField, threshold float64) {
	gradientFlagPencil(p, 0, 1.0, threshold, f)
}

// flagRef is the retained per-point reference implementation.
func (a *Advection) flagRef(p *amr.Patch, g Grid, f *amr.FlagField, threshold float64) {
	gradientFlag(p, 0, 1.0, threshold, f)
}

// fillPadded visits every cell of the patch's padded region.
func fillPadded(p *amr.Patch, fn func(pt geom.Point)) {
	padded := p.Padded()
	var pt geom.Point
	switch p.Box.Rank {
	case 1:
		for x := padded.Lo[0]; x <= padded.Hi[0]; x++ {
			fn(geom.Point{x})
		}
	case 2:
		for y := padded.Lo[1]; y <= padded.Hi[1]; y++ {
			pt[1] = y
			for x := padded.Lo[0]; x <= padded.Hi[0]; x++ {
				pt[0] = x
				fn(pt)
			}
		}
	default:
		for z := padded.Lo[2]; z <= padded.Hi[2]; z++ {
			pt[2] = z
			for y := padded.Lo[1]; y <= padded.Hi[1]; y++ {
				pt[1] = y
				for x := padded.Lo[0]; x <= padded.Hi[0]; x++ {
					pt[0] = x
					fn(pt)
				}
			}
		}
	}
}

func sq(x float64) float64 { return x * x }
