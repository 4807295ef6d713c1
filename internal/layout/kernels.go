package layout

// transposeBlock is the cache-blocking factor for the out-of-place
// transposes (elements per side of a square block).
const transposeBlock = 32

// TransposeZXY rearranges a local slab from x-y-z layout (z contiguous) to
// z-x-y layout (y contiguous): dst[(z·xc+lx)·ny + y] = src[(lx·ny+y)·nz + z].
// This is the standard Transpose step (step 2 of the 1-D decomposition
// procedure). dst and src must not overlap.
func TransposeZXY(dst, src []complex128, xc, ny, nz int) {
	checkLen("TransposeZXY", dst, src, xc*ny*nz)
	// Blocked over (y, z) to keep both access streams cache-resident.
	for lx := 0; lx < xc; lx++ {
		srcX := src[lx*ny*nz:]
		for y0 := 0; y0 < ny; y0 += transposeBlock {
			y1 := minInt(y0+transposeBlock, ny)
			for z0 := 0; z0 < nz; z0 += transposeBlock {
				z1 := minInt(z0+transposeBlock, nz)
				for y := y0; y < y1; y++ {
					row := srcX[y*nz:]
					for z := z0; z < z1; z++ {
						dst[(z*xc+lx)*ny+y] = row[z]
					}
				}
			}
		}
	}
}

// TransposeXZY rearranges a local slab from x-y-z to x-z-y layout:
// dst[(lx·nz+z)·ny + y] = src[(lx·ny+y)·nz + z]. This is the faster §3.5
// transpose used when Nx == Ny: it is a per-x 2-D transpose with much better
// locality than the full 3-D permutation. dst and src must not overlap.
func TransposeXZY(dst, src []complex128, xc, ny, nz int) {
	checkLen("TransposeXZY", dst, src, xc*ny*nz)
	for lx := 0; lx < xc; lx++ {
		s := src[lx*ny*nz:]
		d := dst[lx*ny*nz:]
		for y0 := 0; y0 < ny; y0 += transposeBlock {
			y1 := minInt(y0+transposeBlock, ny)
			for z0 := 0; z0 < nz; z0 += transposeBlock {
				z1 := minInt(z0+transposeBlock, nz)
				for y := y0; y < y1; y++ {
					row := s[y*nz:]
					for z := z0; z < z1; z++ {
						d[z*ny+y] = row[z]
					}
				}
			}
		}
	}
}

// PackSubtile packs one Pack sub-tile (Algorithm 2) of communication tile
// [zt0, zt0+ztl) into the tile's send buffer. The sub-tile covers local x
// indices [x0, x1) and tile-local z indices [z0, z1); the full y extent is
// always packed. src is the post-transpose slab (fast selects x-z-y vs
// z-x-y layout); buf is the tile send buffer laid out as rank-ordered
// destination blocks, each in (z, x, y) order.
func (g Grid) PackSubtile(buf, src []complex128, fast bool, zt0, ztl, x0, x1, z0, z1 int) {
	g.PackSubtileRanks(buf, src, fast, zt0, ztl, x0, x1, z0, z1, 0, g.P)
}

// PackSubtileRanks packs the sub-tile blocks destined for ranks [r0, r1)
// only. Distinct rank ranges write disjoint regions of the send buffer, so
// a worker pool can pack one sub-tile's destination blocks concurrently.
func (g Grid) PackSubtileRanks(buf, src []complex128, fast bool, zt0, ztl, x0, x1, z0, z1, r0, r1 int) {
	xc := g.XC()
	for r := r0; r < r1; r++ {
		ys := g.YD.Start(r)
		yc := g.YD.Count(r)
		block := buf[g.SendBlockOff(ztl, r):]
		for zl := z0; zl < z1; zl++ {
			for lx := x0; lx < x1; lx++ {
				rb := g.RowYBase(fast, zt0+zl, lx)
				dst := block[(zl*xc+lx)*yc : (zl*xc+lx)*yc+yc]
				copy(dst, src[rb+ys:rb+ys+yc])
			}
		}
	}
}

// UnpackSubtile unpacks one Unpack sub-tile (Algorithm 3) of communication
// tile [zt0, zt0+ztl) from the tile's receive buffer into the output slab.
// The sub-tile covers local y indices [y0, y1) and tile-local z indices
// [z0, z1); the full x extent is always unpacked (so the FFTx rows for this
// sub-tile become complete). buf is the tile receive buffer laid out as
// rank-ordered source blocks in the sender's (z, x, y) order; dst is the
// output slab (fast selects y-z-x vs z-y-x layout).
func (g Grid) UnpackSubtile(dst, buf []complex128, fast bool, zt0, ztl, y0, y1, z0, z1 int) {
	g.UnpackSubtileRanks(dst, buf, fast, zt0, ztl, y0, y1, z0, z1, 0, g.P)
}

// UnpackSubtileRanks unpacks the sub-tile blocks received from source
// ranks [s0, s1) only. Distinct source ranges write disjoint x spans of the
// output rows, so a worker pool can unpack one sub-tile concurrently.
func (g Grid) UnpackSubtileRanks(dst, buf []complex128, fast bool, zt0, ztl, y0, y1, z0, z1, s0, s1 int) {
	yc := g.YC()
	for s := s0; s < s1; s++ {
		xs := g.XD.Start(s)
		xcs := g.XD.Count(s)
		block := buf[g.RecvBlockOff(ztl, s):]
		for zl := z0; zl < z1; zl++ {
			// The source block is (x, y)-ordered while output rows are
			// x-contiguous, so this is a 2-D transpose per (s, zl): blocked
			// over (ly, xl) like the transpose kernels, so each yc-strided
			// source line is consumed a cache-resident tile at a time
			// instead of one element per full sweep.
			zb := block[zl*xcs*yc:]
			for ly0 := y0; ly0 < y1; ly0 += transposeBlock {
				ly1 := minInt(ly0+transposeBlock, y1)
				for xl0 := 0; xl0 < xcs; xl0 += transposeBlock {
					xl1 := minInt(xl0+transposeBlock, xcs)
					for ly := ly0; ly < ly1; ly++ {
						rb := g.RowXBase(fast, ly, zt0+zl)
						src := zb[ly:]
						for xl := xl0; xl < xl1; xl++ {
							dst[rb+xs+xl] = src[xl*yc]
						}
					}
				}
			}
		}
	}
}

// PackTile packs a whole communication tile without loop tiling (a single
// sub-tile spanning the full x and z extents). Used by the un-tiled
// baseline and TH variants.
func (g Grid) PackTile(buf, src []complex128, fast bool, zt0, ztl int) {
	g.PackSubtile(buf, src, fast, zt0, ztl, 0, g.XC(), 0, ztl)
}

// UnpackTile unpacks a whole communication tile without loop tiling.
func (g Grid) UnpackTile(dst, buf []complex128, fast bool, zt0, ztl int) {
	g.UnpackSubtile(dst, buf, fast, zt0, ztl, 0, g.YC(), 0, ztl)
}

func checkLen(op string, dst, src []complex128, want int) {
	if len(dst) < want || len(src) < want {
		panic("layout: " + op + ": buffer too short")
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
