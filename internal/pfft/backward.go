package pfft

import (
	"fmt"

	"offt/internal/fft"
	"offt/internal/layout"
	"offt/internal/mpi"
)

// Backward3D executes the distributed inverse 3-D FFT, mirroring the
// forward pipeline (§2.3 of the paper notes the approach applies directly
// backward). slab is this rank's y-slab in the z-y-x forward output
// layout; the returned slice is the rank's x-slab in x-y-z layout. The
// transform is unnormalized: Forward3D followed by Backward3D multiplies
// by Nx·Ny·Nz.
//
// The NEW variant overlaps the inverse computation steps (FFTx⁻¹, Repack,
// Scatter, FFTy⁻¹) with the reverse non-blocking all-to-all using the same
// ten parameters; Baseline and NEW-0 run the blocking pipeline. The TH
// variants are forward-only comparison models and are rejected.
func Backward3D(c mpi.Comm, g layout.Grid, slab []complex128, v Variant, prm Params, flag fft.Flag) ([]complex128, Breakdown, error) {
	prm, err := ExpandParams(v, g, prm)
	if err != nil {
		return nil, Breakdown{}, err
	}
	e, err := newBackEngine(NewPipeline(c), g, v, prm, flag, slab, make([]complex128, g.InSize()))
	if err != nil {
		return nil, Breakdown{}, err
	}
	in := make([]complex128, g.InSize())
	b, err := e.run(in, slab)
	if err != nil {
		return nil, Breakdown{}, err
	}
	return in, b, nil
}

// backEngine is the slab backward transform of one rank bound to one
// pipeline: a single exchange phase whose Front is FFTx⁻¹+Repack, whose
// Post is the reverse all-to-all and whose Back is Scatter+FFTy⁻¹, then
// FFTz⁻¹, which reads the post-transpose slab and writes the x-y-z result
// in one pass, the inverse transpose folded in. In the breakdown, Repack time is
// accounted under Pack and Scatter under Unpack (they are the
// corresponding copy steps of the reverse direction). A backEngine is
// reusable: run may be called many times with fresh slabs and
// destinations, which is how a Plan serves repeated inverse transforms
// without allocating.
type backEngine struct {
	pl    *Pipeline
	g     layout.Grid
	v     Variant
	prm   Params // expanded (see ExpandParams)
	tl    layout.Tiling
	phase Phase

	src  []complex128 // this run's input y-slab (forward output); read by FFTx⁻¹ only
	out  []complex128 // FFTx⁻¹'s output, same layout; may be src itself
	work []complex128 // post-scatter z-x-y slab; dead once FFTz⁻¹ has read it
	in   []complex128 // this run's destination, the final x-y-z slab

	planZ, planY, planX *fft.Plan

	sendBufs, recvBufs [][]complex128
	sendCounts         []int
	recvCounts         []int
}

// newBackEngine binds the backward transform of variant v with expanded
// parameters prm to pipeline pl and pre-sizes its communication slots (one
// more than the window, each for the largest tile) so steady-state
// execution never allocates. out is the y-slab (length g.OutSize()) FFTx⁻¹
// writes and Repack reads; work (length g.InSize()) is scratch that may be
// shared with a forward engine, as each run writes all of it before reading.
func newBackEngine(pl *Pipeline, g layout.Grid, v Variant, prm Params, flag fft.Flag, out, work []complex128) (*backEngine, error) {
	if v == TH || v == TH0 {
		return nil, fmt.Errorf("pfft: backward transform does not support the %v comparison model", v)
	}
	c := pl.c
	if c.Rank() != g.Rank || c.Size() != g.P {
		return nil, fmt.Errorf("pfft: comm rank/size %d/%d does not match grid %d/%d", c.Rank(), c.Size(), g.Rank, g.P)
	}
	tl, err := layout.NewTiling(g.Nz, prm.T)
	if err != nil {
		return nil, err
	}
	e := &backEngine{
		pl: pl, g: g, v: v, prm: prm, tl: tl,
		out:   out,
		work:  work,
		planZ: fft.Plan1DCached(g.Nz, fft.Backward, flag).Clone(),
		planY: fft.Plan1DCached(g.Ny, fft.Backward, flag).Clone(),
		planX: fft.Plan1DCached(g.Nx, fft.Backward, flag).Clone(),

		sendCounts: make([]int, g.P),
		recvCounts: make([]int, g.P),
	}
	e.phase = Phase{Front: e.fftxRepack, Post: e.postTile, Back: e.scatterFFTy}
	for s := 0; s <= window(v, prm); s++ {
		e.sendBuf(s, tl.TileLen(0))
		e.recvBuf(s, tl.TileLen(0))
	}
	return e, nil
}

// run executes one inverse transform of slab (this rank's y-slab in the
// forward output layout; only read unless it is the engine's own out) and
// lands the x-y-z result in dst, which FFTz⁻¹ writes and nothing reads.
func (e *backEngine) run(dst, slab []complex128) (Breakdown, error) {
	if len(slab) != e.g.OutSize() || len(dst) != e.g.InSize() {
		return Breakdown{}, fmt.Errorf("pfft: backward slab/destination lengths %d/%d, want %d/%d",
			len(slab), len(dst), e.g.OutSize(), e.g.InSize())
	}
	e.src, e.in = slab, dst
	pl, c, g := e.pl, e.pl.c, e.g
	pl.Begin(e.prm.Comm)
	pl.Run(e.tl.NumTiles(), window(e.v, e.prm), &e.phase)

	t := c.Now()
	fftzRows(e.planZ, g, e.in, e.work, false, 0, g.XC()*g.Ny)
	pl.Step(&pl.B.FFTz, "FFTz", t, -1)
	e.src, e.in = nil, nil // the caller's memory is not the engine's to keep alive
	return pl.End(), nil
}

// fftxRepack runs FFTx⁻¹ and Repack over one tile with Uy/Uz loop tiling,
// interleaving Fx and Fu Test calls over the window.
func (e *backEngine) fftxRepack(tile, slot int, win []mpi.Request) {
	pl, c, g, prm := e.pl, e.pl.c, e.g, e.prm
	zt0, ztl := e.tl.TileStart(tile), e.tl.TileLen(tile)
	nSub := layout.NumSubTiles(ztl, prm.Uz) * layout.NumSubTiles(g.YC(), prm.Uy)
	u := 0
	buf := e.sendBuf(slot, ztl)
	layout.SubTiles(ztl, prm.Uz, func(z0, z1 int) {
		layout.SubTiles(g.YC(), prm.Uy, func(y0, y1 int) {
			t := c.Now()
			// Batched over the layout's contiguous runs (see FFTxSub).
			for z := zt0 + z0; z < zt0+z1; z++ {
				base := g.RowXBase(y0, z)
				e.planX.TransformRowsTo(e.out[base:], e.src[base:], y1-y0, g.Nx)
			}
			pl.Step(&pl.B.FFTx, "FFTx", t, tile)
			pl.Tests(win, testsDue(prm.Fx, u, nSub))
			t = c.Now()
			g.RepackSubtile(buf, e.out, zt0, ztl, y0, y1, z0, z1)
			pl.Step(&pl.B.Pack, "Pack", t, tile)
			pl.Tests(win, testsDue(prm.Fu, u, nSub))
			u++
		})
	})
}

// scatterFFTy runs Scatter and FFTy⁻¹ over one tile with Px/Pz loop
// tiling, interleaving Fp and Fy Test calls over the window.
func (e *backEngine) scatterFFTy(tile, slot int, win []mpi.Request) {
	pl, c, g, prm := e.pl, e.pl.c, e.g, e.prm
	zt0, ztl := e.tl.TileStart(tile), e.tl.TileLen(tile)
	nSub := layout.NumSubTiles(ztl, prm.Pz) * layout.NumSubTiles(g.XC(), prm.Px)
	u := 0
	buf := e.recvBuf(slot, ztl)
	layout.SubTiles(ztl, prm.Pz, func(z0, z1 int) {
		layout.SubTiles(g.XC(), prm.Px, func(x0, x1 int) {
			t := c.Now()
			g.ScatterSubtile(e.work, buf, zt0, ztl, z0, z1, x0, x1)
			pl.Step(&pl.B.Unpack, "Unpack", t, tile)
			pl.Tests(win, testsDue(prm.Fp, u, nSub))
			t = c.Now()
			// Batched over the layout's contiguous runs (see FFTySub).
			for z := zt0 + z0; z < zt0+z1; z++ {
				e.planY.TransformRows(e.work[g.RowYBase(z, x0):], x1-x0, g.Ny)
			}
			pl.Step(&pl.B.FFTy, "FFTy", t, tile)
			pl.Tests(win, testsDue(prm.Fy, u, nSub))
			u++
		})
	})
}

// postTile starts the reverse non-blocking all-to-all for one tile: the
// send side carries the forward transform's receive-format blocks.
func (e *backEngine) postTile(tile, slot int) mpi.Request {
	ztl := e.tl.TileLen(tile)
	e.g.RecvCounts(ztl, e.sendCounts) // reverse direction
	e.g.SendCounts(ztl, e.recvCounts)
	return e.pl.c.Ialltoallv(e.sendBuf(slot, ztl), e.sendCounts, e.recvBuf(slot, ztl), e.recvCounts)
}

// Reverse direction: recv-format buffers go out, send-format ones come in.
func (e *backEngine) sendBuf(slot, ztl int) []complex128 {
	return slotBuf(&e.sendBufs, slot, e.g.RecvBufLen(ztl))
}

func (e *backEngine) recvBuf(slot, ztl int) []complex128 {
	return slotBuf(&e.recvBufs, slot, e.g.SendBufLen(ztl))
}
