package solver

import (
	"math"

	"samrpart/internal/amr"
	"samrpart/internal/geom"
)

// BuckleyLeverett solves the 2D Buckley–Leverett two-phase (water/oil)
// saturation equation s_t + div(v f(s)) = 0 with the nonconvex fractional
// flow f(s) = s^2 / (s^2 + M (1-s)^2), upwinded along a constant total
// velocity field. It is the classic reservoir-simulation kernel of the
// GrACE application suite (the paper's Figure 3 shows the 2D
// Buckley–Leverette oil reservoir hierarchy).
type BuckleyLeverett struct {
	// m is the water/oil mobility ratio.
	m float64
	// velocity is the (divergence-free, here constant) total velocity.
	velocity [2]float64
	// injectX, injectY, injectR define the initial injected-water disc
	// (s = 1 inside, s = SInit outside).
	injectX, injectY, injectR float64
	// sInit is the initial background water saturation.
	sInit float64
	cfl   float64
}

// NewBuckleyLeverett returns a water-flood problem with injection near the
// domain origin, sweeping along the velocity (vx, vy).
func NewBuckleyLeverett(vx, vy float64) *BuckleyLeverett {
	return &BuckleyLeverett{
		m:        0.5,
		velocity: [2]float64{vx, vy},
		injectX:  0.1,
		injectY:  0.1,
		injectR:  0.08,
		sInit:    0.0,
		cfl:      0.45,
	}
}

// Name implements Kernel.
func (b *BuckleyLeverett) Name() string { return "buckley-leverett" }

// Rank implements Kernel.
func (b *BuckleyLeverett) Rank() int { return 2 }

// NumFields implements Kernel.
func (b *BuckleyLeverett) NumFields() int { return 1 }

// Ghost implements Kernel.
func (b *BuckleyLeverett) Ghost() int { return 1 }

// FlopsPerCell implements Kernel.
func (b *BuckleyLeverett) FlopsPerCell() float64 { return 40 }

// frac is the fractional flow function.
func (b *BuckleyLeverett) frac(s float64) float64 {
	if s <= 0 {
		return 0
	}
	if s >= 1 {
		return 1
	}
	s2 := s * s
	o := 1 - s
	return s2 / (s2 + b.m*o*o)
}

// dfracMax bounds |f'(s)| over [0,1] numerically (computed once per call;
// cheap relative to a patch sweep).
func (b *BuckleyLeverett) dfracMax() float64 {
	max := 0.0
	const n = 64
	for i := 0; i <= n; i++ {
		s := float64(i) / n
		h := 1e-6
		d := (b.frac(s+h) - b.frac(s-h)) / (2 * h)
		if d > max {
			max = d
		}
	}
	return max
}

// Init implements Kernel.
func (b *BuckleyLeverett) Init(p *amr.Patch, g Grid) {
	fd := p.Field(0)
	fillPadded(p, func(pt geom.Point) {
		x, y, _ := g.cellCenter(pt)
		s := b.sInit
		if sq(x-b.injectX)+sq(y-b.injectY) < sq(b.injectR) {
			s = 1.0
		}
		fd[offsetOf(p, pt)] = s
	})
}

// MaxDT implements Kernel.
func (b *BuckleyLeverett) MaxDT(_ *amr.Patch, g Grid) float64 {
	df := b.dfracMax()
	rate := math.Abs(b.velocity[0])*df/g.h[0] + math.Abs(b.velocity[1])*df/g.h[1]
	if rate == 0 {
		return math.Inf(1)
	}
	return b.cfl / rate
}

// Step implements Kernel: conservative upwind differencing of v·f(s),
// fused over x-pencils. The fractional flow f(s) — the expensive per-cell
// rational function — is evaluated once per cell into rolling row caches
// (rows y-1, y, y+1) instead of ~6 times as in the per-point reference
// (once per axis for the cell itself plus once per neighboring cell that
// reads it). frac is pure, so the caching is bit-identical.
func (b *BuckleyLeverett) Step(next, cur *amr.Patch, g Grid, dt float64) {
	src, dst := cur.Field(0), next.Field(0)
	box := cur.Box
	nx := box.Size(0)
	vx, vy := b.velocity[0], b.velocity[1]
	cx := dt / g.h[0]
	cy := dt / g.h[1]
	// frac rows span the interior x-extent grown by one cell on each side;
	// cell x = Lo[0]+i sits at row index i+1.
	nfx := nx + 2
	frAp, frBp, frCp := getRow(nfx), getRow(nfx), getRow(nfx)
	defer putRow(frAp)
	defer putRow(frBp)
	defer putRow(frCp)
	frA, frB, frC := *frAp, *frBp, *frCp // rows y-1, y, y+1
	fracRow := func(dst []float64, y int) {
		base := rowBase(cur, box.Lo[0]-1, y, 0)
		for j := 0; j < nfx; j++ {
			dst[j] = b.frac(src[base+j])
		}
	}
	fracRow(frA, box.Lo[1]-1)
	fracRow(frB, box.Lo[1])
	for y := box.Lo[1]; y <= box.Hi[1]; y++ {
		fracRow(frC, y+1)
		sb := rowBase(cur, box.Lo[0], y, 0)
		db := rowBase(next, box.Lo[0], y, 0)
		for i := 0; i < nx; i++ {
			s := src[sb+i]
			acc := s
			fs := frB[i+1]
			if vx != 0 {
				var fluxIn, fluxOut float64
				if vx > 0 {
					fluxIn = vx * frB[i]
					fluxOut = vx * fs
				} else {
					fluxIn = vx * fs
					fluxOut = vx * frB[i+2]
				}
				acc -= cx * (fluxOut - fluxIn)
			}
			if vy != 0 {
				var fluxIn, fluxOut float64
				if vy > 0 {
					fluxIn = vy * frA[i+1]
					fluxOut = vy * fs
				} else {
					fluxIn = vy * fs
					fluxOut = vy * frC[i+1]
				}
				acc -= cy * (fluxOut - fluxIn)
			}
			// Clamp: upwind under CFL keeps s in [0,1]; the clamp guards
			// halo boundary transients.
			if acc < 0 {
				acc = 0
			} else if acc > 1 {
				acc = 1
			}
			dst[db+i] = acc
		}
		frA, frB, frC = frB, frC, frA
	}
}

// stepRef is the retained per-point reference implementation.
func (b *BuckleyLeverett) stepRef(next, cur *amr.Patch, g Grid, dt float64) {
	src, dst := cur.Field(0), next.Field(0)
	cur.EachInterior(func(pt geom.Point) {
		off := offsetOf(cur, pt)
		s := src[off]
		acc := s
		for d := 0; d < 2; d++ {
			vel := b.velocity[d]
			if vel == 0 {
				continue
			}
			lo, hi := pt, pt
			lo[d]--
			hi[d]++
			var fluxIn, fluxOut float64
			if vel > 0 {
				fluxIn = vel * b.frac(src[offsetOf(cur, lo)])
				fluxOut = vel * b.frac(s)
			} else {
				fluxIn = vel * b.frac(s)
				fluxOut = vel * b.frac(src[offsetOf(cur, hi)])
			}
			acc -= dt / g.h[d] * (fluxOut - fluxIn)
		}
		// Clamp: upwind under CFL keeps s in [0,1]; the clamp guards halo
		// boundary transients.
		if acc < 0 {
			acc = 0
		} else if acc > 1 {
			acc = 1
		}
		dst[offsetOf(next, pt)] = acc
	})
}

// maxDTRef mirrors MaxDT, which has no per-cell sweep to fuse.
func (b *BuckleyLeverett) maxDTRef(p *amr.Patch, g Grid) float64 { return b.MaxDT(p, g) }

// Flag implements Kernel: refine at the saturation front.
func (b *BuckleyLeverett) Flag(p *amr.Patch, g Grid, f *amr.FlagField, threshold float64) {
	gradientFlagPencil(p, 0, 1.0, threshold, f)
}

// flagRef is the retained per-point reference implementation.
func (b *BuckleyLeverett) flagRef(p *amr.Patch, g Grid, f *amr.FlagField, threshold float64) {
	gradientFlag(p, 0, 1.0, threshold, f)
}
