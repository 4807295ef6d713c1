// Package pencil implements the 2-D (pencil) domain decomposition for the
// parallel 3-D FFT — the alternative discussed in §2.2 of the paper and
// used by P3DFFT and Takahashi's library, and the paper's stated future
// work for combining with overlap. With a pr×pc process grid the method
// scales to p = pr·pc ≤ Nx·Ny ranks (versus p ≤ min(Nx, Ny) for the 1-D
// slab decomposition) at the cost of two all-to-all phases, each confined
// to a row or column subgroup of the grid.
//
// Pipeline (forward transform):
//
//	z-pencils  (x∈X_i, y∈Y_j, all z)   — FFTz
//	  ↓ all-to-all within the row group (pc ranks): swap y↔z splits
//	y-pencils  (x∈X_i, all y, z∈Z_j)   — FFTy
//	  ↓ all-to-all within the column group (pr ranks): swap x↔y splits
//	x-pencils  (all x, y∈Y2_i, z∈Z_j)  — FFTx
//
// The output distribution therefore differs from the input's (y is split
// over rows, z over columns), which is standard for pencil transforms.
// Forward3D is the one-shot blocking implementation (like the comparison
// libraries) and the oracle the tests compare against. Plan is the
// reusable transform. It describes each exchange once, as two sides (the
// array, the per-peer walk that packs one way and unpacks the other, the
// row FFT), and builds every pfft.Phase from that description: forward runs
// exchange A then B, backward B then A with the sides swapped, both on the
// same pfft.Pipeline as the slab transform, which is the paper's overlap
// machinery applied to the 2-D decomposition (its §7).
// SimulateOverlappedGrid runs the forward phases with steps that charge the
// cost model instead of computing.
package pencil

import (
	"fmt"

	"offt/internal/fft"
	"offt/internal/layout"
	"offt/internal/mpi"
)

// Grid2D is the per-rank geometry of a pr×pc pencil decomposition.
type Grid2D struct {
	Nx, Ny, Nz int
	PR, PC     int
	Rank       int
	RI, CI     int         // row and column index in the process grid
	XD         layout.Dist // x split over rows (phases 0–1)
	YD         layout.Dist // y split over columns (phase 0)
	ZD         layout.Dist // z split over columns (phases 1–2)
	YD2        layout.Dist // y split over rows (phase 2)
}

// NewGrid2D validates and builds the pencil geometry for one rank.
func NewGrid2D(nx, ny, nz, pr, pc, rank int) (Grid2D, error) {
	p := pr * pc
	switch {
	case nx < 1 || ny < 1 || nz < 1:
		return Grid2D{}, fmt.Errorf("pencil: invalid shape %d×%d×%d", nx, ny, nz)
	case pr < 1 || pc < 1:
		return Grid2D{}, fmt.Errorf("pencil: invalid process grid %d×%d", pr, pc)
	case rank < 0 || rank >= p:
		return Grid2D{}, fmt.Errorf("pencil: rank %d out of range [0,%d)", rank, p)
	case nx < pr || ny < pc || ny < pr || nz < pc:
		return Grid2D{}, fmt.Errorf("pencil: %d×%d grid needs Nx≥pr, Ny≥max(pr,pc), Nz≥pc (got %d×%d×%d)", pr, pc, nx, ny, nz)
	}
	return Grid2D{
		Nx: nx, Ny: ny, Nz: nz, PR: pr, PC: pc, Rank: rank,
		RI: rank / pc, CI: rank % pc,
		XD:  layout.Dist{N: nx, P: pr},
		YD:  layout.Dist{N: ny, P: pc},
		ZD:  layout.Dist{N: nz, P: pc},
		YD2: layout.Dist{N: ny, P: pr},
	}, nil
}

// P returns the total rank count.
func (g Grid2D) P() int { return g.PR * g.PC }

// XC returns the local x extent (phases 0–1).
func (g Grid2D) XC() int { return g.XD.Count(g.RI) }

// YC returns the local y extent in phase 0.
func (g Grid2D) YC() int { return g.YD.Count(g.CI) }

// ZC returns the local z extent in phases 1–2.
func (g Grid2D) ZC() int { return g.ZD.Count(g.CI) }

// Y2C returns the local y extent in phase 2.
func (g Grid2D) Y2C() int { return g.YD2.Count(g.RI) }

// InSize returns the input pencil length (xc·yc·Nz).
func (g Grid2D) InSize() int { return g.XC() * g.YC() * g.Nz }

// MidSize returns the phase-1 pencil length (xc·Ny·zc).
func (g Grid2D) MidSize() int { return g.XC() * g.Ny * g.ZC() }

// OutSize returns the output pencil length (y2c·zc·Nx).
func (g Grid2D) OutSize() int { return g.Y2C() * g.ZC() * g.Nx }

// GlobalRank maps process-grid coordinates to a world rank.
func (g Grid2D) GlobalRank(ri, ci int) int { return ri*g.PC + ci }

// Forward3D executes the blocking pencil-decomposed forward 3-D FFT on
// this rank. slab is the rank's input z-pencil in x-y-z layout (length
// InSize(), z contiguous, consumed); the result is the rank's x-pencil in
// y-z-x layout (length OutSize(), x contiguous). Every rank must call it
// with the same shape and flag.
func Forward3D(c mpi.Comm, g Grid2D, slab []complex128, flag fft.Flag) ([]complex128, error) {
	if c.Size() != g.P() || c.Rank() != g.Rank {
		return nil, fmt.Errorf("pencil: comm rank/size %d/%d does not match grid %d/%d", c.Rank(), c.Size(), g.Rank, g.P())
	}
	if len(slab) != g.InSize() {
		return nil, fmt.Errorf("pencil: slab length %d, want %d", len(slab), g.InSize())
	}
	p := g.P()
	xc, yc, zc, y2c := g.XC(), g.YC(), g.ZC(), g.Y2C()

	// Phase 0: FFTz on the contiguous z rows.
	planZ := fft.Plan1DCached(g.Nz, fft.Forward, flag).Clone()
	planZ.Batch(slab, xc*yc, g.Nz)

	// Transpose A within the row group: split z over columns, gather y.
	// Send to (RI, cj): the sub-block z ∈ Z_cj of everything local, packed
	// in (x, y, z) order.
	sendCounts := make([]int, p)
	recvCounts := make([]int, p)
	sendBuf := make([]complex128, g.InSize())
	off := 0
	for cj := 0; cj < g.PC; cj++ {
		dst := g.GlobalRank(g.RI, cj)
		zs, zcnt := g.ZD.Start(cj), g.ZD.Count(cj)
		sendCounts[dst] = xc * yc * zcnt
		for lx := 0; lx < xc; lx++ {
			for ly := 0; ly < yc; ly++ {
				row := slab[(lx*yc+ly)*g.Nz:]
				copy(sendBuf[off:off+zcnt], row[zs:zs+zcnt])
				off += zcnt
			}
		}
	}
	// Receive from (RI, cj): its y-range Y_cj for our z-range.
	for cj := 0; cj < g.PC; cj++ {
		recvCounts[g.GlobalRank(g.RI, cj)] = xc * g.YD.Count(cj) * zc
	}
	recvBuf := make([]complex128, g.MidSize())
	c.Alltoallv(sendBuf, sendCounts, recvBuf, recvCounts)

	// Unpack into the phase-1 layout [xc][zc][Ny] (y contiguous) and FFTy.
	mid := make([]complex128, g.MidSize())
	roff := 0
	for cj := 0; cj < g.PC; cj++ {
		ys, ycnt := g.YD.Start(cj), g.YD.Count(cj)
		for lx := 0; lx < xc; lx++ {
			for ly := 0; ly < ycnt; ly++ {
				for lz := 0; lz < zc; lz++ {
					mid[(lx*zc+lz)*g.Ny+ys+ly] = recvBuf[roff]
					roff++
				}
			}
		}
	}
	planY := fft.Plan1DCached(g.Ny, fft.Forward, flag).Clone()
	planY.Batch(mid, xc*zc, g.Ny)

	// Transpose B within the column group: split y over rows, gather x.
	// Send to (ri, CI): the sub-block y ∈ Y2_ri, packed in (x, z, y) order.
	for i := range sendCounts {
		sendCounts[i], recvCounts[i] = 0, 0
	}
	sendBuf2 := make([]complex128, g.MidSize())
	off = 0
	for ri := 0; ri < g.PR; ri++ {
		dst := g.GlobalRank(ri, g.CI)
		ys, ycnt := g.YD2.Start(ri), g.YD2.Count(ri)
		sendCounts[dst] = xc * zc * ycnt
		for lx := 0; lx < xc; lx++ {
			for lz := 0; lz < zc; lz++ {
				row := mid[(lx*zc+lz)*g.Ny:]
				copy(sendBuf2[off:off+ycnt], row[ys:ys+ycnt])
				off += ycnt
			}
		}
	}
	for ri := 0; ri < g.PR; ri++ {
		recvCounts[g.GlobalRank(ri, g.CI)] = g.XD.Count(ri) * zc * y2c
	}
	recvBuf2 := make([]complex128, g.OutSize())
	c.Alltoallv(sendBuf2, sendCounts, recvBuf2, recvCounts)

	// Unpack into the output layout [y2c][zc][Nx] (x contiguous) and FFTx.
	out := make([]complex128, g.OutSize())
	roff = 0
	for ri := 0; ri < g.PR; ri++ {
		xs, xcnt := g.XD.Start(ri), g.XD.Count(ri)
		for lx := 0; lx < xcnt; lx++ {
			for lz := 0; lz < zc; lz++ {
				for ly := 0; ly < y2c; ly++ {
					out[(ly*zc+lz)*g.Nx+xs+lx] = recvBuf2[roff]
					roff++
				}
			}
		}
	}
	planX := fft.Plan1DCached(g.Nx, fft.Forward, flag).Clone()
	planX.Batch(out, y2c*zc, g.Nx)
	return out, nil
}

// ScatterPencil extracts rank g.Rank's input z-pencil (x-y-z layout) from
// a full array in x-y-z layout.
func ScatterPencil(full []complex128, g Grid2D) []complex128 {
	if len(full) != g.Nx*g.Ny*g.Nz {
		panic(fmt.Sprintf("pencil: ScatterPencil: full length %d != %d", len(full), g.Nx*g.Ny*g.Nz))
	}
	slab := make([]complex128, g.InSize())
	ScatterPencilInto(slab, full, g)
	return slab
}

// GatherPencil assembles the full array (x-y-z layout) from the per-rank
// output x-pencils of Forward3D.
func GatherPencil(outs [][]complex128, nx, ny, nz, pr, pc int) []complex128 {
	full := make([]complex128, nx*ny*nz)
	for rank := 0; rank < pr*pc; rank++ {
		g, err := NewGrid2D(nx, ny, nz, pr, pc, rank)
		if err != nil {
			panic(err)
		}
		GatherPencilInto(full, outs[rank], g)
	}
	return full
}
