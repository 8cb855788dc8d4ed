package solver

import (
	"math"

	"samrpart/internal/amr"
	"samrpart/internal/geom"
)

// Euler field indices.
const (
	qRho  = 0 // density
	qMomX = 1 // x momentum
	qMomY = 2 // y momentum
	qMomZ = 3 // z momentum
	qEner = 4 // total energy
	qN    = 5
)

// Euler3D solves the 3D compressible Euler equations with a first-order
// Rusanov (local Lax–Friedrichs) finite-volume scheme. The default initial
// condition is a Richtmyer–Meshkov-style configuration: a planar shock
// travelling toward a corrugated density interface, matching the paper's 3D
// compressible turbulence kernel in character.
type Euler3D struct {
	gamma float64
	// domainLen is the physical domain extent per axis, used to scale the
	// interface corrugation.
	domainLen [geom.MaxDim]float64
	// ShockX is the initial shock plane position; InterfaceX the mean
	// interface position; Amplitude the corrugation amplitude.
	ShockX, InterfaceX, Amplitude float64
	// rhoLight / rhoHeavy are the densities on either side of the
	// interface; the post-shock state is (RhoPost, UPost, PPost).
	rhoLight, rhoHeavy    float64
	rhoPost, uPost, pPost float64
	pAmbient              float64
	cfl                   float64
}

// NewRichtmyerMeshkov returns the paper's evaluation kernel: a Mach ~1.5
// shock approaching a corrugated light/heavy interface in a shock-tube
// shaped domain (the RM3D base grid is 128x32x32, i.e. 4:1:1).
func NewRichtmyerMeshkov(domainLen [geom.MaxDim]float64) *Euler3D {
	return &Euler3D{
		gamma:      1.4,
		domainLen:  domainLen,
		ShockX:     0.15 * domainLen[0],
		InterfaceX: 0.45 * domainLen[0],
		Amplitude:  0.04 * domainLen[0],
		rhoLight:   1.0,
		rhoHeavy:   3.0,
		rhoPost:    1.862,
		uPost:      0.7,
		pPost:      2.458,
		pAmbient:   1.0,
		cfl:        0.4,
	}
}

// Name implements Kernel.
func (e *Euler3D) Name() string { return "euler3d-rm" }

// Rank implements Kernel.
func (e *Euler3D) Rank() int { return 3 }

// NumFields implements Kernel.
func (e *Euler3D) NumFields() int { return qN }

// Ghost implements Kernel.
func (e *Euler3D) Ghost() int { return 1 }

// FlopsPerCell implements Kernel. Six Rusanov fluxes at ~50 flops each plus
// the update.
func (e *Euler3D) FlopsPerCell() float64 { return 350 }

// Init implements Kernel.
func (e *Euler3D) Init(p *amr.Patch, g Grid) {
	fillPadded(p, func(pt geom.Point) {
		x, y, z := g.cellCenter(pt)
		var rho, u, pr float64
		iface := e.InterfaceX
		if e.domainLen[1] > 0 && e.domainLen[2] > 0 {
			iface += e.Amplitude *
				math.Cos(2*math.Pi*y/e.domainLen[1]) *
				math.Cos(2*math.Pi*z/e.domainLen[2])
		}
		switch {
		case x < e.ShockX: // post-shock
			rho, u, pr = e.rhoPost, e.uPost, e.pPost
		case x < iface: // pre-shock light gas
			rho, u, pr = e.rhoLight, 0, e.pAmbient
		default: // heavy gas
			rho, u, pr = e.rhoHeavy, 0, e.pAmbient
		}
		off := offsetOf(p, pt)
		p.Field(qRho)[off] = rho
		p.Field(qMomX)[off] = rho * u
		p.Field(qMomY)[off] = 0
		p.Field(qMomZ)[off] = 0
		p.Field(qEner)[off] = pr/(e.gamma-1) + 0.5*rho*u*u
	})
}

// state is a primitive-variable view of one cell.
type state struct {
	rho, u, v, w, p, c float64
}

func (e *Euler3D) decode(p *amr.Patch, off int) state {
	return e.decodeVals(p.Field(qRho)[off], p.Field(qMomX)[off],
		p.Field(qMomY)[off], p.Field(qMomZ)[off], p.Field(qEner)[off])
}

// decodeVals converts one cell's conserved values to primitives. It is the
// reference path's decode; the fused path decodes through primitives, the
// same expressions in the same order.
func (e *Euler3D) decodeVals(rho, momx, momy, momz, ener float64) state {
	var s state
	s.rho = rho
	if s.rho < 1e-12 {
		s.rho = 1e-12
	}
	s.u = momx / s.rho
	s.v = momy / s.rho
	s.w = momz / s.rho
	kin := 0.5 * s.rho * (s.u*s.u + s.v*s.v + s.w*s.w)
	s.p = (e.gamma - 1) * (ener - kin)
	if s.p < 1e-12 {
		s.p = 1e-12
	}
	s.c = math.Sqrt(e.gamma * s.p / s.rho)
	return s
}

// primitives is decodeVals for the fused sweeps: the same floors and
// expressions in the same order, on plain values, small enough to inline so
// that no call sits in a per-cell loop.
func primitives(gamma, rho, momx, momy, momz, ener float64) (r, u, v, w, p, c float64) {
	r = rho
	if r < 1e-12 {
		r = 1e-12
	}
	u = momx / r
	v = momy / r
	w = momz / r
	kin := 0.5 * r * (u*u + v*v + w*w)
	p = (gamma - 1) * (ener - kin)
	if p < 1e-12 {
		p = 1e-12
	}
	c = math.Sqrt(gamma * p / r)
	return
}

// cell is the fused path's flux-ready record of one decoded cell: the
// primitive state plus every product that state.flux and rusanov would
// recompute from it at each of its six faces. Each field is the reference's
// own expression on the same operands, so reading it equals recomputing it.
type cell struct {
	vel    [3]float64 // u, v, w
	mom    [3]float64 // ρu, ρv, ρw as cons computes them (not the raw field)
	spd    [3]float64 // |u_d| + c, rusanov's per-axis wave speed
	rho, p float64    // floored
	ener   float64    // p/(γ-1) + ½ρ|u|², the re-encoded energy (not the raw field)
	enthp  float64    // ener + p, the energy flux's factor
}

// decodeRow decodes the cells of one field row into dst, one record each.
func (e *Euler3D) decodeRow(dst []cell, rho, momx, momy, momz, ener []float64) {
	gamma := e.gamma
	n := len(dst)
	rho, momx, momy, momz, ener = rho[:n], momx[:n], momy[:n], momz[:n], ener[:n]
	for i := range dst {
		r, u, v, w, p, cs := primitives(gamma, rho[i], momx[i], momy[i], momz[i], ener[i])
		c := &dst[i]
		c.vel = [3]float64{u, v, w}
		c.mom = [3]float64{r * u, r * v, r * w}
		c.spd = [3]float64{math.Abs(u) + cs, math.Abs(v) + cs, math.Abs(w) + cs}
		c.rho, c.p = r, p
		c.ener = p/(gamma-1) + 0.5*r*(u*u+v*v+w*w)
		c.enthp = c.ener + p
	}
}

// flux returns the Euler flux vector along axis d for state s.
func (s state) flux(d int, gamma float64) [qN]float64 {
	vel := [3]float64{s.u, s.v, s.w}[d]
	ener := s.p/(gamma-1) + 0.5*s.rho*(s.u*s.u+s.v*s.v+s.w*s.w)
	var f [qN]float64
	f[qRho] = s.rho * vel
	f[qMomX] = s.rho * s.u * vel
	f[qMomY] = s.rho * s.v * vel
	f[qMomZ] = s.rho * s.w * vel
	f[qMomX+d] += s.p
	f[qEner] = (ener + s.p) * vel
	return f
}

func (s state) cons() [qN]float64 {
	var q [qN]float64
	q[qRho] = s.rho
	q[qMomX] = s.rho * s.u
	q[qMomY] = s.rho * s.v
	q[qMomZ] = s.rho * s.w
	// p was decoded with gamma-law; re-encode with the same law in Step via
	// closure over gamma; set energy there.
	return q
}

// maxDTRef is the retained per-point reference implementation.
func (e *Euler3D) maxDTRef(p *amr.Patch, g Grid) float64 {
	maxRate := 0.0
	p.EachInterior(func(pt geom.Point) {
		s := e.decode(p, offsetOf(p, pt))
		rate := (math.Abs(s.u)+s.c)/g.h[0] +
			(math.Abs(s.v)+s.c)/g.h[1] +
			(math.Abs(s.w)+s.c)/g.h[2]
		if rate > maxRate {
			maxRate = rate
		}
	})
	if maxRate == 0 {
		return math.Inf(1)
	}
	return e.cfl / maxRate
}

// stepRef is the retained per-point reference implementation.
func (e *Euler3D) stepRef(next, cur *amr.Patch, g Grid, dt float64) {
	gamma := e.gamma
	cur.EachInterior(func(pt geom.Point) {
		off := offsetOf(cur, pt)
		var dq [qN]float64
		sc := e.decode(cur, off)
		for d := 0; d < 3; d++ {
			lo, hi := pt, pt
			lo[d]--
			hi[d]++
			sl := e.decode(cur, offsetOf(cur, lo))
			sr := e.decode(cur, offsetOf(cur, hi))
			fL := rusanov(sl, sc, d, gamma)
			fR := rusanov(sc, sr, d, gamma)
			coef := dt / g.h[d]
			for q := 0; q < qN; q++ {
				dq[q] -= coef * (fR[q] - fL[q])
			}
		}
		noff := offsetOf(next, pt)
		for q := 0; q < qN; q++ {
			next.Field(q)[noff] = cur.Field(q)[off] + dq[q]
		}
	})
}

// rusanov computes the local Lax–Friedrichs flux between left and right
// states across a face normal to axis d.
func rusanov(l, r state, d int, gamma float64) [qN]float64 {
	fl := l.flux(d, gamma)
	fr := r.flux(d, gamma)
	lvel := [3]float64{l.u, l.v, l.w}[d]
	rvel := [3]float64{r.u, r.v, r.w}[d]
	smax := math.Max(math.Abs(lvel)+l.c, math.Abs(rvel)+r.c)
	ql, qr := l.cons(), r.cons()
	ql[qEner] = l.p/(gamma-1) + 0.5*l.rho*(l.u*l.u+l.v*l.v+l.w*l.w)
	qr[qEner] = r.p/(gamma-1) + 0.5*r.rho*(r.u*r.u+r.v*r.v+r.w*r.w)
	var f [qN]float64
	for q := 0; q < qN; q++ {
		f[q] = 0.5*(fl[q]+fr[q]) - 0.5*smax*(qr[q]-ql[q])
	}
	return f
}

// Flag implements Kernel: refine where the density gradient is steep,
// normalized by the light/heavy contrast.
func (e *Euler3D) Flag(p *amr.Patch, g Grid, f *amr.FlagField, threshold float64) {
	scale := e.rhoHeavy - e.rhoLight
	if scale <= 0 {
		scale = 1
	}
	gradientFlagPencil(p, qRho, scale, threshold, f)
}

// flagRef is the retained per-point reference implementation.
func (e *Euler3D) flagRef(p *amr.Patch, g Grid, f *amr.FlagField, threshold float64) {
	scale := e.rhoHeavy - e.rhoLight
	if scale <= 0 {
		scale = 1
	}
	gradientFlag(p, qRho, scale, threshold, f)
}
