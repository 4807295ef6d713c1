package layout

import "fmt"

// ScatterX extracts this rank's input x-slab (x-y-z layout) from a full
// Nx×Ny×Nz array in x-y-z layout. It is the distribution step applications
// and tests use to feed the parallel transform.
func ScatterX(full []complex128, g Grid) []complex128 {
	slab := make([]complex128, g.InSize())
	ScatterXInto(slab, full, g)
	return slab
}

// XSlab returns this rank's input x-slab inside a full Nx×Ny×Nz array in
// x-y-z layout: x is the slowest dimension, so the slab is the contiguous
// range a rank can read, or write, where the caller keeps it.
func (g Grid) XSlab(full []complex128) []complex128 {
	if len(full) != g.Nx*g.Ny*g.Nz {
		panic(fmt.Sprintf("layout: XSlab: full array length %d != %d", len(full), g.Nx*g.Ny*g.Nz))
	}
	return full[g.X0()*g.Ny*g.Nz:][:g.InSize()]
}

// ScatterXInto is ScatterX into a caller-provided slab of length
// g.InSize(), so steady-state callers re-feed a reusable buffer instead of
// allocating per transform.
func ScatterXInto(slab, full []complex128, g Grid) {
	if len(slab) != g.InSize() {
		panic(fmt.Sprintf("layout: ScatterX: slab length %d != %d", len(slab), g.InSize()))
	}
	copy(slab, g.XSlab(full))
}

// GatherY assembles a full Nx×Ny×Nz array in x-y-z layout from the per-rank
// z-y-x output y-slabs produced by the parallel forward transform. slabs[r]
// must be rank r's output slab.
func GatherY(slabs [][]complex128, nx, ny, nz, p int) []complex128 {
	full := make([]complex128, nx*ny*nz)
	GatherYInto(full, slabs, nx, ny, nz, p, false)
	return full
}

// assembleTileX/Z are the cache-block edges for the x/z-tiled transposes
// below. Both the gather and scatter walk a strided corner-turn between the
// slab layout (x contiguous) and the full x-y-z array (z contiguous). The
// x edge stays small because consecutive x values land Ny·Nz elements apart
// in the full array (a power-of-two stride that aliases L1 sets); the z run
// stays long so the contiguous side streams whole cache lines.
const (
	assembleTileX = 8
	assembleTileZ = 64
)

// GatherYInto is GatherY into a caller-provided full array of length
// nx·ny·nz (every element is overwritten). fast must be false: it is left
// from the §3.5 y-z-x output layout no engine produces any more, and stays
// only until the benchmark's gather probe stops passing it.
func GatherYInto(full []complex128, slabs [][]complex128, nx, ny, nz, p int, fast bool) {
	if fast {
		panic("layout: GatherYInto: the y-z-x output layout is gone")
	}
	g := mustGrid(nx, ny, nz, p)
	for g.Rank = 0; g.Rank < p; g.Rank++ {
		GatherYRank(full, slabs[g.Rank], g)
	}
}

// mustGrid is rank 0's geometry of a decomposition the caller already runs.
func mustGrid(nx, ny, nz, p int) Grid {
	g, err := NewGrid(nx, ny, nz, p, 0)
	if err != nil {
		panic(err)
	}
	return g
}

// GatherYRank writes rank g.Rank's z-y-x output y-slab into its y-range of
// the full x-y-z array: the corner turn of the forward output, which each
// rank can run on its own slab because the ranks' y-ranges are disjoint. It
// is the inverse of ScatterYInto.
func GatherYRank(full, slab []complex128, g Grid) {
	if len(full) != g.Nx*g.Ny*g.Nz {
		panic(fmt.Sprintf("layout: GatherY: full array length %d != %d", len(full), g.Nx*g.Ny*g.Nz))
	}
	if len(slab) < g.OutSize() {
		panic(fmt.Sprintf("layout: GatherY: rank %d slab length %d < %d", g.Rank, len(slab), g.OutSize()))
	}
	y0, yc := g.Y0(), g.YC()
	zstep := g.RowXBase(0, 1) // a slab row's stride per z
	for ly := 0; ly < yc; ly++ {
		y, rb := y0+ly, g.RowXBase(ly, 0)
		for xb := 0; xb < g.Nx; xb += assembleTileX {
			x1 := min(xb+assembleTileX, g.Nx)
			for zb := 0; zb < g.Nz; zb += assembleTileZ {
				z1 := min(zb+assembleTileZ, g.Nz)
				for x := xb; x < x1; x++ {
					fb := (x*g.Ny + y) * g.Nz
					for z := zb; z < z1; z++ {
						full[fb+z] = slab[rb+z*zstep+x]
					}
				}
			}
		}
	}
}

// ScatterY splits a full array (x-y-z layout) into per-rank y-slabs in the
// z-y-x post-forward layout. It is the inverse of GatherY and feeds the
// parallel backward transform.
func ScatterY(full []complex128, g Grid) []complex128 {
	slab := make([]complex128, g.OutSize())
	ScatterYInto(slab, full, g)
	return slab
}

// ScatterYInto is ScatterY into a caller-provided slab of length
// g.OutSize().
func ScatterYInto(slab, full []complex128, g Grid) {
	if len(full) != g.Nx*g.Ny*g.Nz {
		panic(fmt.Sprintf("layout: ScatterY: full array length %d != %d", len(full), g.Nx*g.Ny*g.Nz))
	}
	if len(slab) != g.OutSize() {
		panic(fmt.Sprintf("layout: ScatterY: slab length %d != %d", len(slab), g.OutSize()))
	}
	y0, yc := g.Y0(), g.YC()
	zstep := g.RowXBase(0, 1)
	for ly := 0; ly < yc; ly++ {
		y, rb := y0+ly, g.RowXBase(ly, 0)
		for xb := 0; xb < g.Nx; xb += assembleTileX {
			x1 := min(xb+assembleTileX, g.Nx)
			for zb := 0; zb < g.Nz; zb += assembleTileZ {
				z1 := min(zb+assembleTileZ, g.Nz)
				for x := xb; x < x1; x++ {
					fb := (x*g.Ny + y) * g.Nz
					for z := zb; z < z1; z++ {
						slab[rb+z*zstep+x] = full[fb+z]
					}
				}
			}
		}
	}
}

// GatherX assembles a full array in x-y-z layout from per-rank input
// x-slabs. It is the inverse of ScatterX.
func GatherX(slabs [][]complex128, nx, ny, nz, p int) []complex128 {
	full := make([]complex128, nx*ny*nz)
	GatherXInto(full, slabs, nx, ny, nz, p)
	return full
}

// GatherXInto is GatherX into a caller-provided full array of length
// nx·ny·nz (every element is overwritten).
func GatherXInto(full []complex128, slabs [][]complex128, nx, ny, nz, p int) {
	g := mustGrid(nx, ny, nz, p)
	for g.Rank = 0; g.Rank < p; g.Rank++ {
		copy(g.XSlab(full), slabs[g.Rank][:g.InSize()])
	}
}
