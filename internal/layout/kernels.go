package layout

// transposeBlock is the cache-blocking factor for the out-of-place
// transposes (elements per side of a square block).
const transposeBlock = 32

// TransposeZXY rearranges a local slab from x-y-z layout (z contiguous) to
// z-x-y layout (y contiguous): dst[(z·xc+lx)·ny + y] = src[(lx·ny+y)·nz + z].
// This is the Transpose step (step 2 of the 1-D decomposition procedure),
// which the engines fold into FFTz; it stays as the reference the tests
// and benchmarks hold that pass to. dst and src must not overlap.
func TransposeZXY(dst, src []complex128, xc, ny, nz int) {
	checkLen("TransposeZXY", dst, src, xc*ny*nz)
	// Blocked over (y, z) to keep both access streams cache-resident.
	for lx := 0; lx < xc; lx++ {
		srcX := src[lx*ny*nz:]
		for y0 := 0; y0 < ny; y0 += transposeBlock {
			y1 := min(y0+transposeBlock, ny)
			for z0 := 0; z0 < nz; z0 += transposeBlock {
				z1 := min(z0+transposeBlock, nz)
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

// PackSubtile packs one Pack sub-tile (Algorithm 2) of communication tile
// [zt0, zt0+ztl) into the tile's send buffer. The sub-tile covers local x
// indices [x0, x1) and tile-local z indices [z0, z1); the full y extent is
// always packed. src is the post-transpose z-x-y slab; buf is the tile
// send buffer laid out as rank-ordered destination blocks, each in (z, x,
// y) order.
func (g Grid) PackSubtile(buf, src []complex128, zt0, ztl, x0, x1, z0, z1 int) {
	g.PackSubtileRanks(buf, src, zt0, ztl, x0, x1, z0, z1, 0, g.P)
}

// PackSubtileRanks packs the sub-tile blocks destined for ranks [r0, r1)
// only. Distinct rank ranges write disjoint regions of the send buffer, so
// a worker pool can pack one sub-tile's destination blocks concurrently.
func (g Grid) PackSubtileRanks(buf, src []complex128, zt0, ztl, x0, x1, z0, z1, r0, r1 int) {
	xc := g.XC()
	for r := r0; r < r1; r++ {
		ys := g.YD.Start(r)
		yc := g.YD.Count(r)
		block := buf[g.SendBlockOff(ztl, r):]
		for zl := z0; zl < z1; zl++ {
			for lx := x0; lx < x1; lx++ {
				rb := g.RowYBase(zt0+zl, lx)
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
// z-y-x output slab.
func (g Grid) UnpackSubtile(dst, buf []complex128, zt0, ztl, y0, y1, z0, z1 int) {
	g.UnpackSubtileRanks(dst, buf, zt0, ztl, y0, y1, z0, z1, 0, g.P)
}

// UnpackSubtileRanks unpacks the sub-tile blocks received from source
// ranks [s0, s1) only. Distinct source ranges write disjoint x spans of the
// output rows, so a worker pool can unpack one sub-tile concurrently.
func (g Grid) UnpackSubtileRanks(dst, buf []complex128, zt0, ztl, y0, y1, z0, z1, s0, s1 int) {
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
				ly1 := min(ly0+transposeBlock, y1)
				for xl0 := 0; xl0 < xcs; xl0 += transposeBlock {
					xl1 := min(xl0+transposeBlock, xcs)
					for ly := ly0; ly < ly1; ly++ {
						rb := g.RowXBase(ly, zt0+zl)
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

func checkLen(op string, dst, src []complex128, want int) {
	if len(dst) < want || len(src) < want {
		panic("layout: " + op + ": buffer too short")
	}
}
