package layout

// Inverse kernels for the backward (frequency → time) parallel transform.
// The backward pipeline mirrors the forward one: the y-slab output of the
// forward transform is repacked into the same per-rank block format, the
// all-to-all runs in the reverse direction (what rank r received from s it
// now sends back to s), and the blocks are scattered into the
// post-transpose work layout before the inverse FFTy and FFTz steps.

// RepackSubtile is the inverse of UnpackSubtile: it reads the output slab
// (z-y-x, or y-z-x when fast) and fills the tile's block buffer (the same
// rank-ordered, (z, x, y)-ordered format the forward transform received).
// The sub-tile covers local y indices [y0, y1) and tile-local z indices
// [z0, z1); the full x extent is always repacked.
func (g Grid) RepackSubtile(buf, src []complex128, fast bool, zt0, ztl, y0, y1, z0, z1 int) {
	yc := g.YC()
	for s := 0; s < g.P; s++ {
		xs := g.XD.Start(s)
		xcs := g.XD.Count(s)
		block := buf[g.RecvBlockOff(ztl, s):]
		for zl := z0; zl < z1; zl++ {
			for ly := y0; ly < y1; ly++ {
				rb := g.RowXBase(fast, ly, zt0+zl)
				dst := block[zl*xcs*yc+ly:]
				for xl := 0; xl < xcs; xl++ {
					dst[xl*yc] = src[rb+xs+xl]
				}
			}
		}
	}
}

// ScatterSubtile is the inverse of PackSubtile: it reads a tile's block
// buffer (rank-ordered destination blocks in (z, x, y) order) and writes
// the post-transpose work slab (z-x-y, or x-z-y when fast). The sub-tile
// covers local x indices [x0, x1) and tile-local z indices [z0, z1); the
// full y extent is always scattered.
func (g Grid) ScatterSubtile(dst, buf []complex128, fast bool, zt0, ztl, z0, z1, x0, x1 int) {
	xc := g.XC()
	for r := 0; r < g.P; r++ {
		ys := g.YD.Start(r)
		yc := g.YD.Count(r)
		block := buf[g.SendBlockOff(ztl, r):]
		for zl := z0; zl < z1; zl++ {
			for lx := x0; lx < x1; lx++ {
				rb := g.RowYBase(fast, zt0+zl, lx)
				src := block[(zl*xc+lx)*yc : (zl*xc+lx)*yc+yc]
				copy(dst[rb+ys:rb+ys+yc], src)
			}
		}
	}
}

// RepackTile repacks a whole tile without loop tiling.
func (g Grid) RepackTile(buf, src []complex128, fast bool, zt0, ztl int) {
	g.RepackSubtile(buf, src, fast, zt0, ztl, 0, g.YC(), 0, ztl)
}

// ScatterTile scatters a whole tile without loop tiling.
func (g Grid) ScatterTile(dst, buf []complex128, fast bool, zt0, ztl int) {
	g.ScatterSubtile(dst, buf, fast, zt0, ztl, 0, ztl, 0, g.XC())
}

// TransposeZXYInv rearranges z-x-y back to x-y-z:
// dst[(lx·ny+y)·nz + z] = src[(z·xc+lx)·ny + y]. Inverse of TransposeZXY.
func TransposeZXYInv(dst, src []complex128, xc, ny, nz int) {
	checkLen("TransposeZXYInv", dst, src, xc*ny*nz)
	for lx := 0; lx < xc; lx++ {
		dstX := dst[lx*ny*nz:]
		for z0 := 0; z0 < nz; z0 += transposeBlock {
			z1 := minInt(z0+transposeBlock, nz)
			for y0 := 0; y0 < ny; y0 += transposeBlock {
				y1 := minInt(y0+transposeBlock, ny)
				for z := z0; z < z1; z++ {
					row := src[(z*xc+lx)*ny:]
					for y := y0; y < y1; y++ {
						dstX[y*nz+z] = row[y]
					}
				}
			}
		}
	}
}

// TransposeXZYInv rearranges x-z-y back to x-y-z:
// dst[(lx·ny+y)·nz + z] = src[(lx·nz+z)·ny + y]. Inverse of TransposeXZY.
func TransposeXZYInv(dst, src []complex128, xc, ny, nz int) {
	checkLen("TransposeXZYInv", dst, src, xc*ny*nz)
	for lx := 0; lx < xc; lx++ {
		s := src[lx*ny*nz:]
		d := dst[lx*ny*nz:]
		for z0 := 0; z0 < nz; z0 += transposeBlock {
			z1 := minInt(z0+transposeBlock, nz)
			for y0 := 0; y0 < ny; y0 += transposeBlock {
				y1 := minInt(y0+transposeBlock, ny)
				for z := z0; z < z1; z++ {
					row := s[z*ny:]
					for y := y0; y < y1; y++ {
						d[y*nz+z] = row[y]
					}
				}
			}
		}
	}
}
