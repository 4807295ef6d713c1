package pfft

import (
	"offt/internal/layout"
	"offt/internal/mpi"
)

// forward is the slab forward transform of one engine bound to one
// pipeline: FFTz and Transpose (one pass on a RealEngine, except for TH),
// then a single exchange phase whose Front is
// Algorithm 2 (FFTy+Pack), whose Post is the engine's PostTile and whose
// Back is Algorithm 3 (Unpack+FFTx). It is bound once — by a Plan at
// construction, by Run per call — and executed any number of times.
type forward struct {
	pl    *Pipeline
	e     Engine
	g     layout.Grid
	v     Variant
	prm   Params // expanded (see ExpandParams)
	tl    layout.Tiling
	phase Phase
}

// newForward binds the forward transform of variant v with expanded
// parameters prm on engine e to pipeline pl.
func newForward(pl *Pipeline, e Engine, v Variant, prm Params) *forward {
	g := e.Grid()
	tl, err := layout.NewTiling(g.Nz, prm.T)
	if err != nil {
		panic(err) // unreachable: Validate checked T
	}
	f := &forward{pl: pl, e: e, g: g, v: v, prm: prm, tl: tl}
	f.phase = Phase{Front: f.fftyPack, Post: f.postTile, Back: f.unpackFFTx}
	return f
}

// window returns the pipeline window a variant runs its exchange phase
// with: the tuned W for the overlapped variants, 0 (blocking per-tile
// all-to-all) for Baseline, NEW-0 and TH-0.
func window(v Variant, prm Params) int {
	if v == NEW || v == TH {
		return prm.W
	}
	return 0
}

// run executes one forward transform on the engine's current input slab
// and returns this rank's breakdown.
func (f *forward) run() Breakdown {
	f.pl.Begin(f.prm.Comm)
	fftzTranspose(f.pl, f.e, f.v, -1)
	f.pl.Run(f.tl.NumTiles(), window(f.v, f.prm), &f.phase)
	return f.pl.End()
}

// fftzTranspose runs steps 1 and 2, FFTz and variant v's Transpose, on e
// and books them on pl against tile. A RealEngine runs them as one pass,
// booked under FFTz, except for TH, whose plain, slower rearrangement keeps
// its own step; the cost model charges both steps, as the paper's FFTW
// Baseline runs them.
func fftzTranspose(pl *Pipeline, e Engine, v Variant, tile int) {
	c := pl.c
	t := c.Now()
	if fusedFFTz(e, v) {
		pl.Step(&pl.B.FFTz, "FFTz", t, tile)
		return
	}
	e.FFTz()
	pl.Step(&pl.B.FFTz, "FFTz", t, tile)
	t = c.Now()
	e.Transpose(v)
	pl.Step(&pl.B.Transpose, "Transpose", t, tile)
}

func (f *forward) postTile(tile, slot int) mpi.Request {
	return f.e.PostTile(slot, f.tl.TileLen(tile))
}

// fftyPack is Algorithm 2: loop-tiled FFTy and Pack over one communication
// tile, with Fy Test calls distributed across the FFTy portions and Fp
// across the Pack portions.
func (f *forward) fftyPack(tile, slot int, win []mpi.Request) {
	pl, c, e, g, prm := f.pl, f.pl.c, f.e, f.g, f.prm
	zt0, ztl := f.tl.TileStart(tile), f.tl.TileLen(tile)
	nSub := layout.NumSubTiles(ztl, prm.Pz) * layout.NumSubTiles(g.XC(), prm.Px)
	u := 0
	layout.SubTiles(ztl, prm.Pz, func(z0, z1 int) {
		layout.SubTiles(g.XC(), prm.Px, func(x0, x1 int) {
			t := c.Now()
			e.FFTySub(zt0, z0, z1, x0, x1)
			pl.Step(&pl.B.FFTy, "FFTy", t, tile)
			pl.Tests(win, testsDue(prm.Fy, u, nSub))
			t = c.Now()
			e.PackSub(slot, zt0, ztl, z0, z1, x0, x1)
			pl.Step(&pl.B.Pack, "Pack", t, tile)
			pl.Tests(win, testsDue(prm.Fp, u, nSub))
			u++
		})
	})
}

// unpackFFTx is Algorithm 3: loop-tiled Unpack and FFTx over one
// communication tile, with Fu Test calls during Unpack portions and Fx
// during FFTx portions.
func (f *forward) unpackFFTx(tile, slot int, win []mpi.Request) {
	pl, c, e, g, prm := f.pl, f.pl.c, f.e, f.g, f.prm
	zt0, ztl := f.tl.TileStart(tile), f.tl.TileLen(tile)
	nSub := layout.NumSubTiles(ztl, prm.Uz) * layout.NumSubTiles(g.YC(), prm.Uy)
	u := 0
	layout.SubTiles(ztl, prm.Uz, func(z0, z1 int) {
		layout.SubTiles(g.YC(), prm.Uy, func(y0, y1 int) {
			t := c.Now()
			e.UnpackSub(slot, zt0, ztl, z0, z1, y0, y1)
			pl.Step(&pl.B.Unpack, "Unpack", t, tile)
			pl.Tests(win, testsDue(prm.Fu, u, nSub))
			t = c.Now()
			e.FFTxSub(zt0, z0, z1, y0, y1)
			pl.Step(&pl.B.FFTx, "FFTx", t, tile)
			pl.Tests(win, testsDue(prm.Fx, u, nSub))
			u++
		})
	})
}

// testsDue spreads f Test calls evenly over n units: it returns how many
// are due right after unit u.
func testsDue(f, u, n int) int {
	if n <= 0 {
		return 0
	}
	return f*(u+1)/n - f*u/n
}
