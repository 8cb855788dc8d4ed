package solver

import (
	"math"

	"samrpart/internal/amr"
	"samrpart/internal/geom"
)

// Euler field indices.
const (
	QRho  = 0 // density
	QMomX = 1 // x momentum
	QMomY = 2 // y momentum
	QMomZ = 3 // z momentum
	QEner = 4 // total energy
	qN    = 5
)

// Euler3D solves the 3D compressible Euler equations with a first-order
// Rusanov (local Lax–Friedrichs) finite-volume scheme. The default initial
// condition is a Richtmyer–Meshkov-style configuration: a planar shock
// travelling toward a corrugated density interface, matching the paper's 3D
// compressible turbulence kernel in character.
type Euler3D struct {
	Gamma float64
	// DomainLen is the physical domain extent per axis, used to scale the
	// interface corrugation.
	DomainLen [geom.MaxDim]float64
	// ShockX is the initial shock plane position; InterfaceX the mean
	// interface position; Amplitude the corrugation amplitude.
	ShockX, InterfaceX, Amplitude float64
	// RhoLight / RhoHeavy are the densities on either side of the
	// interface; the post-shock state is (RhoPost, UPost, PPost).
	RhoLight, RhoHeavy    float64
	RhoPost, UPost, PPost float64
	PAmbient              float64
	CFL                   float64
}

// NewRichtmyerMeshkov returns the paper's evaluation kernel: a Mach ~1.5
// shock approaching a corrugated light/heavy interface in a shock-tube
// shaped domain (the RM3D base grid is 128x32x32, i.e. 4:1:1).
func NewRichtmyerMeshkov(domainLen [geom.MaxDim]float64) *Euler3D {
	return &Euler3D{
		Gamma:      1.4,
		DomainLen:  domainLen,
		ShockX:     0.15 * domainLen[0],
		InterfaceX: 0.45 * domainLen[0],
		Amplitude:  0.04 * domainLen[0],
		RhoLight:   1.0,
		RhoHeavy:   3.0,
		RhoPost:    1.862,
		UPost:      0.7,
		PPost:      2.458,
		PAmbient:   1.0,
		CFL:        0.4,
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
		x, y, z := g.CellCenter(pt)
		var rho, u, pr float64
		iface := e.InterfaceX
		if e.DomainLen[1] > 0 && e.DomainLen[2] > 0 {
			iface += e.Amplitude *
				math.Cos(2*math.Pi*y/e.DomainLen[1]) *
				math.Cos(2*math.Pi*z/e.DomainLen[2])
		}
		switch {
		case x < e.ShockX: // post-shock
			rho, u, pr = e.RhoPost, e.UPost, e.PPost
		case x < iface: // pre-shock light gas
			rho, u, pr = e.RhoLight, 0, e.PAmbient
		default: // heavy gas
			rho, u, pr = e.RhoHeavy, 0, e.PAmbient
		}
		off := offsetOf(p, pt)
		p.Field(QRho)[off] = rho
		p.Field(QMomX)[off] = rho * u
		p.Field(QMomY)[off] = 0
		p.Field(QMomZ)[off] = 0
		p.Field(QEner)[off] = pr/(e.Gamma-1) + 0.5*rho*u*u
	})
}

// state is a primitive-variable view of one cell.
type state struct {
	rho, u, v, w, p, c float64
}

func (e *Euler3D) decode(p *amr.Patch, off int) state {
	return e.decodeVals(p.Field(QRho)[off], p.Field(QMomX)[off],
		p.Field(QMomY)[off], p.Field(QMomZ)[off], p.Field(QEner)[off])
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
	s.p = (e.Gamma - 1) * (ener - kin)
	if s.p < 1e-12 {
		s.p = 1e-12
	}
	s.c = math.Sqrt(e.Gamma * s.p / s.rho)
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
	gamma := e.Gamma
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
	f[QRho] = s.rho * vel
	f[QMomX] = s.rho * s.u * vel
	f[QMomY] = s.rho * s.v * vel
	f[QMomZ] = s.rho * s.w * vel
	f[QMomX+d] += s.p
	f[QEner] = (ener + s.p) * vel
	return f
}

func (s state) cons() [qN]float64 {
	var q [qN]float64
	q[QRho] = s.rho
	q[QMomX] = s.rho * s.u
	q[QMomY] = s.rho * s.v
	q[QMomZ] = s.rho * s.w
	// p was decoded with gamma-law; re-encode with the same law in Step via
	// closure over gamma; set energy there.
	return q
}

// maxDTRef is the retained per-point reference implementation.
func (e *Euler3D) maxDTRef(p *amr.Patch, g Grid) float64 {
	maxRate := 0.0
	p.EachInterior(func(pt geom.Point) {
		s := e.decode(p, offsetOf(p, pt))
		rate := (math.Abs(s.u)+s.c)/g.H[0] +
			(math.Abs(s.v)+s.c)/g.H[1] +
			(math.Abs(s.w)+s.c)/g.H[2]
		if rate > maxRate {
			maxRate = rate
		}
	})
	if maxRate == 0 {
		return math.Inf(1)
	}
	return e.CFL / maxRate
}

// stepRef is the retained per-point reference implementation.
func (e *Euler3D) stepRef(next, cur *amr.Patch, g Grid, dt float64) {
	gamma := e.Gamma
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
			coef := dt / g.H[d]
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
	ql[QEner] = l.p/(gamma-1) + 0.5*l.rho*(l.u*l.u+l.v*l.v+l.w*l.w)
	qr[QEner] = r.p/(gamma-1) + 0.5*r.rho*(r.u*r.u+r.v*r.v+r.w*r.w)
	var f [qN]float64
	for q := 0; q < qN; q++ {
		f[q] = 0.5*(fl[q]+fr[q]) - 0.5*smax*(qr[q]-ql[q])
	}
	return f
}

// Flag implements Kernel: refine where the density gradient is steep,
// normalized by the light/heavy contrast.
func (e *Euler3D) Flag(p *amr.Patch, g Grid, f *amr.FlagField, threshold float64) {
	scale := e.RhoHeavy - e.RhoLight
	if scale <= 0 {
		scale = 1
	}
	gradientFlagPencil(p, QRho, scale, threshold, f)
}

// flagRef is the retained per-point reference implementation.
func (e *Euler3D) flagRef(p *amr.Patch, g Grid, f *amr.FlagField, threshold float64) {
	scale := e.RhoHeavy - e.RhoLight
	if scale <= 0 {
		scale = 1
	}
	GradientFlag(p, QRho, scale, threshold, f)
}
