// Package layout implements the data-layout machinery of the parallel 3-D
// FFT: block distributions, the per-rank grid geometry of the 1-D domain
// decomposition, communication tiles along the z dimension, memory-layout
// transposes, and the loop-tiled Pack/Unpack kernels of Algorithms 2 and 3
// in the paper.
//
// Layouts used along the pipeline (all row-major, last dimension contiguous):
//
//	input slab           x-y-z : idx = (lx·Ny + y)·Nz + z   (rank owns an x-slab)
//	after FFTz+Transpose z-x-y : idx = (z·xc + lx)·Ny + y
//	after A2A+Unpack     z-y-x : idx = (z·yc + ly)·Nx + x   (rank owns a y-slab)
//
// The paper's §3.5 x-z-y / y-z-x layout for Nx == Ny is only modelled (its
// cheaper transpose is a cost-model charge, see package model); every
// engine that moves data uses the one layout above.
package layout

import "fmt"

// Dist is a balanced block distribution of n indices over p parts: part r
// owns [Start(r), Start(r)+Count(r)). It handles n not divisible by p.
type Dist struct {
	N, P int
}

// Start returns the first global index owned by part r.
func (d Dist) Start(r int) int { return r * d.N / d.P }

// Count returns the number of indices owned by part r.
func (d Dist) Count(r int) int { return (r+1)*d.N/d.P - r*d.N/d.P }

// MaxCount returns the largest Count over all parts.
func (d Dist) MaxCount() int {
	m := 0
	for r := 0; r < d.P; r++ {
		if c := d.Count(r); c > m {
			m = c
		}
	}
	return m
}

// Owner returns the part owning global index i.
func (d Dist) Owner(i int) int {
	// Inverse of Start: the owner is the largest r with r*N/P <= i.
	r := (i*d.P + d.P - 1) / d.N
	for r < d.P-1 && d.Start(r+1) <= i {
		r++
	}
	for r > 0 && d.Start(r) > i {
		r--
	}
	return r
}

// Grid holds the geometry of the 1-D decomposition for one rank: the global
// shape, the rank's x-slab (input side) and y-slab (output side).
type Grid struct {
	Nx, Ny, Nz int
	P, Rank    int
	XD, YD     Dist
}

// NewGrid validates and builds the geometry for one rank of a p-rank
// decomposition of an Nx×Ny×Nz array.
func NewGrid(nx, ny, nz, p, rank int) (Grid, error) {
	switch {
	case nx < 1 || ny < 1 || nz < 1:
		return Grid{}, fmt.Errorf("layout: invalid shape %d×%d×%d", nx, ny, nz)
	case p < 1:
		return Grid{}, fmt.Errorf("layout: invalid process count %d", p)
	case rank < 0 || rank >= p:
		return Grid{}, fmt.Errorf("layout: rank %d out of range [0,%d)", rank, p)
	case nx < p || ny < p:
		return Grid{}, fmt.Errorf("layout: %d ranks need Nx,Ny >= p (got %d×%d)", p, nx, ny)
	}
	return Grid{
		Nx: nx, Ny: ny, Nz: nz, P: p, Rank: rank,
		XD: Dist{N: nx, P: p},
		YD: Dist{N: ny, P: p},
	}, nil
}

// XC returns the local x extent (input slab thickness).
func (g Grid) XC() int { return g.XD.Count(g.Rank) }

// YC returns the local y extent (output slab thickness).
func (g Grid) YC() int { return g.YD.Count(g.Rank) }

// X0 returns the first global x index owned by this rank.
func (g Grid) X0() int { return g.XD.Start(g.Rank) }

// Y0 returns the first global y index owned by this rank.
func (g Grid) Y0() int { return g.YD.Start(g.Rank) }

// InSize returns the element count of the input slab (xc·Ny·Nz).
func (g Grid) InSize() int { return g.XC() * g.Ny * g.Nz }

// OutSize returns the element count of the output slab (yc·Nx·Nz).
func (g Grid) OutSize() int { return g.YC() * g.Nx * g.Nz }

// RowYBase returns the index of element (z, lx, y=0) in the post-transpose
// layout, i.e. the base of the contiguous length-Ny row that FFTy transforms.
func (g Grid) RowYBase(z, lx int) int { return (z*g.XC() + lx) * g.Ny }

// RowXBase returns the index of element (z, ly, x=0) in the post-unpack
// layout, i.e. the base of the contiguous length-Nx row that FFTx transforms.
func (g Grid) RowXBase(ly, z int) int { return (z*g.YC() + ly) * g.Nx }

// SendBlockOff returns the offset of destination rank r's block inside one
// tile's send buffer, for a tile of z-length ztl. Blocks are laid out in
// rank order; block r holds ztl·xc·YD.Count(r) elements in (z, x, y) order.
func (g Grid) SendBlockOff(ztl, r int) int {
	return ztl * g.XC() * g.YD.Start(r)
}

// RecvBlockOff returns the offset of source rank s's block inside one tile's
// receive buffer. Block s holds ztl·XD.Count(s)·yc elements in (z, x, y)
// order (the sender's pack order).
func (g Grid) RecvBlockOff(ztl, s int) int {
	return ztl * g.YC() * g.XD.Start(s)
}

// SendCounts fills counts[r] with the elements this rank sends to rank r for
// a tile of z-length ztl.
func (g Grid) SendCounts(ztl int, counts []int) {
	for r := 0; r < g.P; r++ {
		counts[r] = ztl * g.XC() * g.YD.Count(r)
	}
}

// RecvCounts fills counts[s] with the elements this rank receives from rank
// s for a tile of z-length ztl.
func (g Grid) RecvCounts(ztl int, counts []int) {
	for s := 0; s < g.P; s++ {
		counts[s] = ztl * g.XD.Count(s) * g.YC()
	}
}

// SendBufLen returns the send buffer length for a tile of z-length ztl
// (ztl·xc·Ny, the sum of all destination blocks).
func (g Grid) SendBufLen(ztl int) int { return ztl * g.XC() * g.Ny }

// RecvBufLen returns the receive buffer length for a tile of z-length ztl.
func (g Grid) RecvBufLen(ztl int) int { return ztl * g.Nx * g.YC() }

// Tiling divides the z dimension into communication tiles of size T (the
// last tile may be shorter when T does not divide Nz).
type Tiling struct {
	Nz, T int
}

// NewTiling validates the tile size against the z extent.
func NewTiling(nz, t int) (Tiling, error) {
	if t < 1 || t > nz {
		return Tiling{}, fmt.Errorf("layout: tile size %d out of range [1,%d]", t, nz)
	}
	return Tiling{Nz: nz, T: t}, nil
}

// NumTiles returns ⌈Nz/T⌉.
func (tl Tiling) NumTiles() int { return (tl.Nz + tl.T - 1) / tl.T }

// TileStart returns the first z index of tile i.
func (tl Tiling) TileStart(i int) int { return i * tl.T }

// TileLen returns the z extent of tile i.
func (tl Tiling) TileLen(i int) int {
	end := (i + 1) * tl.T
	if end > tl.Nz {
		end = tl.Nz
	}
	return end - tl.T*i
}

// SubTiles enumerates the (lo, hi) chunks of [0, n) in steps of size step,
// calling fn for each chunk. It is the loop-tiling iteration used by
// Algorithms 2 and 3.
func SubTiles(n, step int, fn func(lo, hi int)) {
	if step < 1 {
		step = n
	}
	for lo := 0; lo < n; lo += step {
		hi := lo + step
		if hi > n {
			hi = n
		}
		fn(lo, hi)
	}
}

// NumSubTiles returns the number of chunks SubTiles(n, step, ·) visits.
func NumSubTiles(n, step int) int {
	if step < 1 {
		return 1
	}
	return (n + step - 1) / step
}
