package solver

import (
	"samrpart/internal/amr"
	"samrpart/internal/geom"
)

// Fused pencil implementation of the MUSCL SSP-RK2 step. Each stage
// evaluates the limited-reconstruction right-hand side L(u) into a pooled
// scratch field with one sweep per axis:
//
//   - x: the face value/flux is carried as a scalar along the pencil, so
//     each x face is reconstructed once (the reference reconstructs every
//     face twice, once per adjoining cell);
//   - y: a rolling row buffer holds the flux through the face below the
//     current row;
//   - z: a rolling plane buffer holds the flux through the face behind the
//     current plane.
//
// The per-axis accumulation order (x, then y, then z) and every arithmetic
// expression match the reference rhs exactly, so the result is
// bit-identical: reconstruction is pure, and reusing a face value across
// its two adjoining cells is the same value the reference computed twice.

// Step implements Kernel with the two-stage SSP-RK2 (Heun) integrator over
// fused pencil sweeps: u1 = u + dt L(u) on the interior grown by two
// cells, then u <- (u + u1 + dt L(u1)) / 2 on the interior.
func (a *MUSCLAdvection) Step(next, cur *amr.Patch, g Grid, dt float64) {
	src, dst := cur.Field(0), next.Field(0)
	sp := getStage(len(src))
	defer stagePool.Put(sp)
	u1 := *sp
	copy(u1, src)
	rp := getStage(len(src))
	defer stagePool.Put(rp)
	rhs := *rp

	stage1 := cur.Box.Grow(2)
	a.rhsRegion(cur, rhs, src, g, stage1)
	nx1 := stage1.Size(0)
	for z := stage1.Lo[2]; z <= stage1.Hi[2]; z++ {
		for y := stage1.Lo[1]; y <= stage1.Hi[1]; y++ {
			b := rowBase(cur, stage1.Lo[0], y, z)
			for i := 0; i < nx1; i++ {
				u1[b+i] = src[b+i] + dt*rhs[b+i]
			}
		}
	}

	box := cur.Box
	a.rhsRegion(cur, rhs, u1, g, box)
	nx := box.Size(0)
	for z := box.Lo[2]; z <= box.Hi[2]; z++ {
		for y := box.Lo[1]; y <= box.Hi[1]; y++ {
			sb := rowBase(cur, box.Lo[0], y, z)
			db := rowBase(next, box.Lo[0], y, z)
			for i := 0; i < nx; i++ {
				off := sb + i
				dst[db+i] = 0.5 * (src[off] + u1[off] + dt*rhs[off])
			}
		}
	}
}

// rhsRegion evaluates rhs[off] = -div(v u) from the limited MUSCL
// reconstruction of u, for every cell of region, via one fused sweep per
// axis. region grown by 2 along each active axis must lie inside the
// padded box.
func (a *MUSCLAdvection) rhsRegion(p *amr.Patch, rhs, u []float64, g Grid, region geom.Box) {
	nx := region.Size(0)
	for z := region.Lo[2]; z <= region.Hi[2]; z++ {
		for y := region.Lo[1]; y <= region.Hi[1]; y++ {
			b := rowBase(p, region.Lo[0], y, z)
			for i := 0; i < nx; i++ {
				rhs[b+i] = 0
			}
		}
	}
	for d := 0; d < a.dim; d++ {
		vel := a.velocity[d]
		if vel == 0 {
			continue
		}
		switch d {
		case 0:
			a.rhsPassX(p, rhs, u, region, vel, g.h[0])
		case 1:
			a.rhsPassY(p, rhs, u, region, vel, g.h[1])
		default:
			a.rhsPassZ(p, rhs, u, region, vel, g.h[2])
		}
	}
}

// rhsPassX accumulates the x-direction flux difference. The face flux is
// carried as a scalar along the pencil: the right face of cell i is the
// left face of cell i+1.
func (a *MUSCLAdvection) rhsPassX(p *amr.Patch, rhs, u []float64, region geom.Box, vel, h float64) {
	nx := region.Size(0)
	pos := vel > 0
	for z := region.Lo[2]; z <= region.Hi[2]; z++ {
		for y := region.Lo[1]; y <= region.Hi[1]; y++ {
			b := rowBase(p, region.Lo[0], y, z)
			if pos {
				s := minmod(u[b-1]-u[b-2], u[b]-u[b-1])
				fl := vel * (u[b-1] + 0.5*s)
				for i := 0; i < nx; i++ {
					off := b + i
					s := minmod(u[off]-u[off-1], u[off+1]-u[off])
					fr := vel * (u[off] + 0.5*s)
					rhs[off] -= (fr - fl) / h
					fl = fr
				}
			} else {
				s := minmod(u[b]-u[b-1], u[b+1]-u[b])
				fl := vel * (u[b] - 0.5*s)
				for i := 0; i < nx; i++ {
					off := b + i
					s := minmod(u[off+1]-u[off], u[off+2]-u[off+1])
					fr := vel * (u[off+1] - 0.5*s)
					rhs[off] -= (fr - fl) / h
					fl = fr
				}
			}
		}
	}
}

// rhsPassY accumulates the y-direction flux difference with a rolling row
// buffer holding the flux through the face below the current row.
func (a *MUSCLAdvection) rhsPassY(p *amr.Patch, rhs, u []float64, region geom.Box, vel, h float64) {
	nx := region.Size(0)
	sy := p.Stride(1)
	pos := vel > 0
	fyp := getRow(nx)
	defer putRow(fyp)
	fy := *fyp
	for z := region.Lo[2]; z <= region.Hi[2]; z++ {
		b0 := rowBase(p, region.Lo[0], region.Lo[1], z)
		if pos {
			for i := 0; i < nx; i++ {
				off := b0 + i
				s := minmod(u[off-sy]-u[off-2*sy], u[off]-u[off-sy])
				fy[i] = vel * (u[off-sy] + 0.5*s)
			}
		} else {
			for i := 0; i < nx; i++ {
				off := b0 + i
				s := minmod(u[off]-u[off-sy], u[off+sy]-u[off])
				fy[i] = vel * (u[off] - 0.5*s)
			}
		}
		for y := region.Lo[1]; y <= region.Hi[1]; y++ {
			b := rowBase(p, region.Lo[0], y, z)
			if pos {
				for i := 0; i < nx; i++ {
					off := b + i
					s := minmod(u[off]-u[off-sy], u[off+sy]-u[off])
					fr := vel * (u[off] + 0.5*s)
					rhs[off] -= (fr - fy[i]) / h
					fy[i] = fr
				}
			} else {
				for i := 0; i < nx; i++ {
					off := b + i
					s := minmod(u[off+sy]-u[off], u[off+2*sy]-u[off+sy])
					fr := vel * (u[off+sy] - 0.5*s)
					rhs[off] -= (fr - fy[i]) / h
					fy[i] = fr
				}
			}
		}
	}
}

// rhsPassZ accumulates the z-direction flux difference with a rolling
// plane buffer holding the flux through the face behind the current plane.
func (a *MUSCLAdvection) rhsPassZ(p *amr.Patch, rhs, u []float64, region geom.Box, vel, h float64) {
	nx := region.Size(0)
	ny := region.Size(1)
	sz := p.Stride(2)
	pos := vel > 0
	fzp := getRow(nx * ny)
	defer putRow(fzp)
	fz := *fzp
	for j, y := 0, region.Lo[1]; y <= region.Hi[1]; j, y = j+1, y+1 {
		b := rowBase(p, region.Lo[0], y, region.Lo[2])
		row := fz[j*nx:]
		if pos {
			for i := 0; i < nx; i++ {
				off := b + i
				s := minmod(u[off-sz]-u[off-2*sz], u[off]-u[off-sz])
				row[i] = vel * (u[off-sz] + 0.5*s)
			}
		} else {
			for i := 0; i < nx; i++ {
				off := b + i
				s := minmod(u[off]-u[off-sz], u[off+sz]-u[off])
				row[i] = vel * (u[off] - 0.5*s)
			}
		}
	}
	for z := region.Lo[2]; z <= region.Hi[2]; z++ {
		for j, y := 0, region.Lo[1]; y <= region.Hi[1]; j, y = j+1, y+1 {
			b := rowBase(p, region.Lo[0], y, z)
			row := fz[j*nx:]
			if pos {
				for i := 0; i < nx; i++ {
					off := b + i
					s := minmod(u[off]-u[off-sz], u[off+sz]-u[off])
					fr := vel * (u[off] + 0.5*s)
					rhs[off] -= (fr - row[i]) / h
					row[i] = fr
				}
			} else {
				for i := 0; i < nx; i++ {
					off := b + i
					s := minmod(u[off+sz]-u[off], u[off+2*sz]-u[off+sz])
					fr := vel * (u[off+sz] - 0.5*s)
					rhs[off] -= (fr - row[i]) / h
					row[i] = fr
				}
			}
		}
	}
}
