package solver

import (
	"math"
	"sync"

	"samrpart/internal/amr"
)

// Fused pencil implementation of the 3D Euler/Rusanov kernel.
//
// The per-point reference pays a heavy per-cell tax: it decodes the
// conserved-to-primitive state of the center cell and all six neighbors (7
// decodes per cell, each with three divides and a square root), computes
// each of the six Rusanov face fluxes from scratch (every face twice, once
// per adjoining cell), and inside every face re-encodes both states' energy
// (a divide each, twice per state) and re-multiplies their momenta. The
// fused path restructures the sweep so that
//
//   - every cell is decoded exactly once per tile, a row at a time, into a
//     flux-ready cell record (decodeRow) that also carries the re-encoded
//     energy, the momenta and the per-axis wave speeds; records live in a
//     rolling two-plane cache (plane z and z+1) that advances with the
//     sweep;
//   - every face flux is computed exactly once, by faceFlux on two records
//     passed by pointer: x faces are carried along the pencil, y faces in
//     a rolling row buffer, z faces in a rolling plane buffer;
//   - the y extent is cut into tiles of eulerTileY rows so the record
//     planes and the z-face plane buffer stay cache resident regardless of
//     patch size (faces and records on tile seams are recomputed per tile —
//     pure functions, so bit-identical).
//
// Every cached product is the reference's expression on the same operands,
// faceFlux keeps rusanov's expressions and their order, and update keeps
// stepRef's x, y, z accumulation order, which makes the fused kernel
// bit-identical to stepRef.

// eulerTileY is the y-tile height. 16 rows step the 16³ tiles of the RM3D
// runs as one tile, with no seam recomputation, and keep a 32-wide patch's
// two record planes ((16+2)·34·104·2 B ≈ 127 KB) plus the z-face plane
// buffer (16·32·40 B ≈ 20 KB) inside L2.
const eulerTileY = 16

// eulerScratch is the pooled per-step working set of one fused Euler
// sweep.
type eulerScratch struct {
	stA, stB []cell        // record planes z and z+1, (ty+2)·(nx+2) records
	fz       [][qN]float64 // z-face flux plane, ty·nx fluxes
	fy       [][qN]float64 // y-face flux row, nx fluxes
}

var eulerPool = sync.Pool{New: func() any { return new(eulerScratch) }}

func getEulerScratch(planeN, fzN, fyN int) *eulerScratch {
	sc := eulerPool.Get().(*eulerScratch)
	if cap(sc.stA) < planeN {
		sc.stA = make([]cell, planeN)
		sc.stB = make([]cell, planeN)
	}
	sc.stA, sc.stB = sc.stA[:planeN], sc.stB[:planeN]
	if cap(sc.fz) < fzN {
		sc.fz = make([][qN]float64, fzN)
	}
	sc.fz = sc.fz[:fzN]
	if cap(sc.fy) < fyN {
		sc.fy = make([][qN]float64, fyN)
	}
	sc.fy = sc.fy[:fyN]
	return sc
}

// faceFlux writes rusanov(l, r, d, γ) into f for two cell records: the
// physical fluxes, the wave speed and the conserved jump are state.flux's
// and rusanov's expressions, with the records' cached products read in
// place of recomputed ones.
func faceFlux(f *[qN]float64, l, r *cell, d int) {
	lv, rv := l.vel[d], r.vel[d]
	hs := 0.5 * maxSpeed(l.spd[d], r.spd[d])
	f[qRho] = 0.5*(l.rho*lv+r.rho*rv) - hs*(r.rho-l.rho)
	for k := 0; k < 3; k++ {
		fl, fr := l.mom[k]*lv, r.mom[k]*rv
		if k == d {
			fl += l.p
			fr += r.p
		}
		f[qMomX+k] = 0.5*(fl+fr) - hs*(r.mom[k]-l.mom[k])
	}
	f[qEner] = 0.5*(l.enthp*lv+r.enthp*rv) - hs*(r.ener-l.ener)
}

// maxSpeed is math.Max(x, y) for two wave speeds |u_d|+c, inlined. A speed
// is never -0 (|u_d| is +0 or positive, and +0 + -0 = +0), so math.Max's
// signed-zero rule never applies: ordered operands take one compare, and
// only a NaN falls through to math.Max for its Inf and NaN rules.
func maxSpeed(x, y float64) float64 {
	if x > y {
		return x
	}
	if x <= y {
		return y
	}
	return math.Max(x, y)
}

// update is stepRef's update of field q of one cell: cur plus dq, with dq
// accumulated from zero over the x, y and z face differences in that order.
func update(cur, cx, cy, cz float64, q int, xl, xh, yl, yh, zl, zh *[qN]float64) float64 {
	dq := 0.0
	dq -= cx * (xh[q] - xl[q])
	dq -= cy * (yh[q] - yl[q])
	dq -= cz * (zh[q] - zl[q])
	return cur + dq
}

// Step implements Kernel with the fused pencil sweep.
func (e *Euler3D) Step(next, cur *amr.Patch, g Grid, dt float64) {
	box := cur.Box
	for y0 := box.Lo[1]; y0 <= box.Hi[1]; y0 += eulerTileY {
		y1 := y0 + eulerTileY - 1
		if y1 > box.Hi[1] {
			y1 = box.Hi[1]
		}
		e.stepTile(next, cur, g, dt, y0, y1)
	}
}

// stepTile advances the interior rows y0..y1 (all x, all z) of cur into
// next.
func (e *Euler3D) stepTile(next, cur *amr.Patch, g Grid, dt float64, y0, y1 int) {
	box := cur.Box
	cx, cy, cz := dt/g.h[0], dt/g.h[1], dt/g.h[2]
	nx := box.Size(0)
	nxs := nx + 2     // records per row: x in [Lo[0]-1, Hi[0]+1]
	ty := y1 - y0 + 1 // interior rows in this tile
	tys := ty + 2     // record rows: y in [y0-1, y1+1]

	rho, mox, moy, moz, ener := cur.Field(qRho), cur.Field(qMomX),
		cur.Field(qMomY), cur.Field(qMomZ), cur.Field(qEner)
	nrho, nmox, nmoy, nmoz, nener := next.Field(qRho), next.Field(qMomX),
		next.Field(qMomY), next.Field(qMomZ), next.Field(qEner)

	sc := getEulerScratch(tys*nxs, ty*nx, nx)
	defer eulerPool.Put(sc)
	stA, stB := sc.stA, sc.stB

	// decodePlane fills dst with the records of plane z, rows y0-1..y1+1,
	// x Lo[0]-1..Hi[0]+1.
	decodePlane := func(dst []cell, z int) {
		for r := 0; r < tys; r++ {
			b := rowBase(cur, box.Lo[0]-1, y0-1+r, z)
			n := b + nxs
			e.decodeRow(dst[r*nxs:(r+1)*nxs], rho[b:n], mox[b:n], moy[b:n], moz[b:n], ener[b:n])
		}
	}

	// Seed the z-face plane buffer with the fluxes through the faces
	// behind the first interior plane (z = Lo[2]-1/2), then load the
	// rolling record planes with z = Lo[2] and Lo[2]+1.
	decodePlane(stB, box.Lo[2]-1)
	decodePlane(stA, box.Lo[2])
	for r := 0; r < ty; r++ {
		behind := stB[(r+1)*nxs:]
		front := stA[(r+1)*nxs:]
		row := sc.fz[r*nx:]
		for i := 0; i < nx; i++ {
			faceFlux(&row[i], &behind[i+1], &front[i+1], 2)
		}
	}
	decodePlane(stB, box.Lo[2]+1)

	var fxLo, fxHi, fyHi, fzHi [qN]float64
	for z := box.Lo[2]; z <= box.Hi[2]; z++ {
		// Seed the y-face row with the fluxes through the faces below the
		// tile's first interior row (y = y0-1/2).
		rowBelow := stA[:nxs]
		rowFirst := stA[nxs:]
		for i := 0; i < nx; i++ {
			faceFlux(&sc.fy[i], &rowBelow[i+1], &rowFirst[i+1], 1)
		}
		for y := y0; y <= y1; y++ {
			// Each row is resliced to nx entries starting at interior x
			// Lo[0], so one range check covers every index below.
			r := y - y0
			row := stA[(r+1)*nxs:] // records of row y, plane z
			ctr, east := row[1:][:nx], row[2:][:nx]
			north := stA[(r+2)*nxs+1:][:nx] // row y+1, plane z
			up := stB[(r+1)*nxs+1:][:nx]    // row y, plane z+1
			fy, fz := sc.fy[:nx], sc.fz[r*nx:][:nx]
			sb := rowBase(cur, box.Lo[0], y, z)
			db := rowBase(next, box.Lo[0], y, z)
			srho, smox, smoy, smoz, sener := rho[sb:][:nx], mox[sb:][:nx],
				moy[sb:][:nx], moz[sb:][:nx], ener[sb:][:nx]
			drho, dmox, dmoy, dmoz, dener := nrho[db:][:nx], nmox[db:][:nx],
				nmoy[db:][:nx], nmoz[db:][:nx], nener[db:][:nx]
			faceFlux(&fxLo, &row[0], &ctr[0], 0)
			for i := range ctr {
				c := &ctr[i]
				faceFlux(&fxHi, c, &east[i], 0)
				faceFlux(&fyHi, c, &north[i], 1)
				faceFlux(&fzHi, c, &up[i], 2)
				fyLo, fzLo := &fy[i], &fz[i]
				drho[i] = update(srho[i], cx, cy, cz, qRho, &fxLo, &fxHi, fyLo, &fyHi, fzLo, &fzHi)
				dmox[i] = update(smox[i], cx, cy, cz, qMomX, &fxLo, &fxHi, fyLo, &fyHi, fzLo, &fzHi)
				dmoy[i] = update(smoy[i], cx, cy, cz, qMomY, &fxLo, &fxHi, fyLo, &fyHi, fzLo, &fzHi)
				dmoz[i] = update(smoz[i], cx, cy, cz, qMomZ, &fxLo, &fxHi, fyLo, &fyHi, fzLo, &fzHi)
				dener[i] = update(sener[i], cx, cy, cz, qEner, &fxLo, &fxHi, fyLo, &fyHi, fzLo, &fzHi)
				fxLo = fxHi
				*fyLo = fyHi
				*fzLo = fzHi
			}
		}
		// Roll the record planes: z+1 becomes the current plane, and the
		// buffer it vacates is refilled with plane z+2 for the next
		// iteration (z+2 <= Hi[2]+1 stays inside the one-cell halo).
		stA, stB = stB, stA
		if z < box.Hi[2] {
			decodePlane(stB, z+2)
		}
	}
	sc.stA, sc.stB = stA, stB
}

// MaxDT implements Kernel: one fused pencil sweep decoding each interior
// cell once, with the same x-then-y-then-z fold order as the reference. It
// needs only the primitive state, so it decodes through primitives alone,
// not into a cell record.
func (e *Euler3D) MaxDT(p *amr.Patch, g Grid) float64 {
	maxRate := 0.0
	box := p.Box
	nx := box.Size(0)
	rho, mox, moy, moz, ener := p.Field(qRho), p.Field(qMomX),
		p.Field(qMomY), p.Field(qMomZ), p.Field(qEner)
	for z := box.Lo[2]; z <= box.Hi[2]; z++ {
		for y := box.Lo[1]; y <= box.Hi[1]; y++ {
			b := rowBase(p, box.Lo[0], y, z)
			r, mx, my, mz, en := rho[b:][:nx], mox[b:][:nx], moy[b:][:nx], moz[b:][:nx], ener[b:][:nx]
			for i := range r {
				_, u, v, w, _, c := primitives(e.gamma, r[i], mx[i], my[i], mz[i], en[i])
				rate := (math.Abs(u)+c)/g.h[0] +
					(math.Abs(v)+c)/g.h[1] +
					(math.Abs(w)+c)/g.h[2]
				if rate > maxRate {
					maxRate = rate
				}
			}
		}
	}
	if maxRate == 0 {
		return math.Inf(1)
	}
	return e.cfl / maxRate
}
