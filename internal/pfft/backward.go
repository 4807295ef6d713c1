package pfft

import (
	"fmt"

	"offt/internal/arena"
	"offt/internal/fft"
	"offt/internal/layout"
	"offt/internal/mpi"
)

// Backward3D executes the distributed inverse 3-D FFT, mirroring the
// forward pipeline (§2.3 of the paper notes the approach applies directly
// backward). slab is this rank's y-slab in the forward output layout of
// the same variant (z-y-x, or y-z-x on the §3.5 fast path); the returned
// slice is the rank's x-slab in x-y-z layout. The transform is
// unnormalized: Forward3D followed by Backward3D multiplies by Nx·Ny·Nz.
//
// The NEW variant overlaps the inverse computation steps (FFTx⁻¹, Repack,
// Scatter, FFTy⁻¹) with the reverse non-blocking all-to-all using the same
// ten parameters; Baseline and NEW-0 run the blocking pipeline. The TH
// variants are forward-only comparison models and are rejected.
func Backward3D(c mpi.Comm, g layout.Grid, slab []complex128, v Variant, prm Params, flag fft.Flag) ([]complex128, Breakdown, error) {
	e, err := newBackEngine(c, g, flag)
	if err != nil {
		return nil, Breakdown{}, err
	}
	var rs runState
	b, err := e.run(&rs, slab, v, prm)
	if err != nil {
		return nil, Breakdown{}, err
	}
	return e.in, b, nil
}

// backEngine holds the backward pipeline's state for one rank. In the
// breakdown, Repack time is accounted under Pack and Scatter under Unpack
// (they are the corresponding copy steps of the reverse direction). A
// backEngine is reusable: run may be called many times with fresh slabs,
// which is how a Plan serves repeated inverse transforms without
// allocating.
type backEngine struct {
	g    layout.Grid
	comm mpi.Comm

	out  []complex128 // input y-slab (forward output), consumed by FFTx⁻¹
	work []complex128 // post-scatter z-x-y (or x-z-y) slab; workBuf's data
	in   []complex128 // final x-y-z slab; owned by the engine, reused per run

	planZ, planY, planX *fft.Plan

	workBuf            *arena.Slab
	sendBufs, recvBufs []*arena.Slab
	sendCounts         []int
	recvCounts         []int

	pooled bool
	trc    *traceRec // nil unless the plan runs in trace mode
}

// newBackEngine prepares a reusable backward engine for one rank.
func newBackEngine(c mpi.Comm, g layout.Grid, flag fft.Flag, opts ...EngineOpt) (*backEngine, error) {
	if c.Rank() != g.Rank || c.Size() != g.P {
		return nil, fmt.Errorf("pfft: comm rank/size %d/%d does not match grid %d/%d", c.Rank(), c.Size(), g.Rank, g.P)
	}
	var cfg engineConfig
	for _, o := range opts {
		o(&cfg)
	}
	e := &backEngine{
		g:     g,
		comm:  c,
		in:    make([]complex128, g.InSize()),
		planZ: fft.Plan1DCached(g.Nz, fft.Backward, flag).Clone(),
		planY: fft.Plan1DCached(g.Ny, fft.Backward, flag).Clone(),
		planX: fft.Plan1DCached(g.Nx, fft.Backward, flag).Clone(),

		pooled: cfg.pooled,
		trc:    cfg.trace,
	}
	if cfg.trace != nil {
		// Route Wait/Test through the recording communicator so the
		// communication side of the timeline is captured too.
		e.comm = &traceComm{Comm: c, rec: cfg.trace}
	}
	e.workBuf = newSlab(g.InSize(), cfg.pooled)
	e.work = e.workBuf.Data
	e.sendCounts = make([]int, g.P)
	e.recvCounts = make([]int, g.P)
	return e, nil
}

// presizeSlots mirrors RealEngine.PresizeSlots for the reverse direction.
func (e *backEngine) presizeSlots(prm Params) {
	ztl := prm.T
	if ztl > e.g.Nz {
		ztl = e.g.Nz
	}
	for s := 0; s <= prm.W; s++ {
		e.sendBuf(s, ztl)
		e.recvBuf(s, ztl)
	}
}

// Close returns arena-backed buffers. The result slab (in) is never
// pooled: callers may still reference it.
func (e *backEngine) Close() {
	e.workBuf.Release()
	e.workBuf, e.work = nil, nil
	releaseSlots(&e.sendBufs)
	releaseSlots(&e.recvBufs)
}

// run executes one inverse transform on slab (this rank's y-slab in the
// forward output layout; consumed) and leaves the x-y-z result in e.in.
func (e *backEngine) run(rs *runState, slab []complex128, v Variant, prm Params) (Breakdown, error) {
	if v == TH || v == TH0 {
		return Breakdown{}, fmt.Errorf("pfft: backward transform does not support the %v comparison model", v)
	}
	prm, err := ExpandParams(v, e.g, prm)
	if err != nil {
		return Breakdown{}, err
	}
	if len(slab) != e.g.OutSize() {
		return Breakdown{}, fmt.Errorf("pfft: backward slab length %d, want %d", len(slab), e.g.OutSize())
	}
	e.out = slab

	c, g := e.comm, e.g
	mpi.SetExchange(c, mpi.Exchange{Alg: prm.Comm})
	var b Breakdown
	start := c.Now()
	fast := OutputFast(v, g)
	if v == NEW {
		e.runOverlapped(rs, prm, fast, &b)
	} else {
		e.runBlocking(prm, fast, &b)
	}

	// Inverse transpose back to x-y-z, then inverse FFTz.
	t := c.Now()
	if fast {
		layout.TransposeXZYInv(e.in, e.work, g.XC(), g.Ny, g.Nz)
	} else {
		layout.TransposeZXYInv(e.in, e.work, g.XC(), g.Ny, g.Nz)
	}
	now := c.Now()
	b.Transpose += now - t
	e.trc.add("Transpose", t, now, -1)

	t = c.Now()
	e.planZ.TransformRows(e.in, g.XC()*g.Ny, g.Nz)
	now = c.Now()
	b.FFTz = now - t
	e.trc.add("FFTz", t, now, -1)

	b.Total = c.Now() - start
	return b, nil
}

// fftxRepack runs FFTx⁻¹ and Repack over one tile with Uy/Uz loop tiling,
// interleaving Fx and Fu Test calls over the window.
func (e *backEngine) fftxRepack(prm Params, tl layout.Tiling, tile, slot int, fast bool, window []mpi.Request, b *Breakdown) {
	c, g := e.comm, e.g
	zt0, ztl := tl.TileStart(tile), tl.TileLen(tile)
	nSub := layout.NumSubTiles(ztl, prm.Uz) * layout.NumSubTiles(g.YC(), prm.Uy)
	u := 0
	buf := e.sendBuf(slot, ztl)
	layout.SubTiles(ztl, prm.Uz, func(z0, z1 int) {
		layout.SubTiles(g.YC(), prm.Uy, func(y0, y1 int) {
			t := c.Now()
			// Batched over the layout's contiguous runs (see FFTxSub).
			if fast {
				for ly := y0; ly < y1; ly++ {
					base := g.RowXBase(fast, ly, zt0+z0)
					e.planX.TransformRows(e.out[base:], z1-z0, g.Nx)
				}
			} else {
				for z := zt0 + z0; z < zt0+z1; z++ {
					base := g.RowXBase(fast, y0, z)
					e.planX.TransformRows(e.out[base:], y1-y0, g.Nx)
				}
			}
			now := c.Now()
			b.FFTx += now - t
			e.trc.add("FFTx", t, now, tile)
			doTests(c, window, testsDue(prm.Fx, u, nSub), b)
			t = c.Now()
			g.RepackSubtile(buf, e.out, fast, zt0, ztl, y0, y1, z0, z1)
			now = c.Now()
			b.Pack += now - t
			e.trc.add("Pack", t, now, tile)
			doTests(c, window, testsDue(prm.Fu, u, nSub), b)
			u++
		})
	})
}

// scatterFFTy runs Scatter and FFTy⁻¹ over one tile with Px/Pz loop
// tiling, interleaving Fp and Fy Test calls over the window.
func (e *backEngine) scatterFFTy(prm Params, tl layout.Tiling, tile, slot int, fast bool, window []mpi.Request, b *Breakdown) {
	c, g := e.comm, e.g
	zt0, ztl := tl.TileStart(tile), tl.TileLen(tile)
	nSub := layout.NumSubTiles(ztl, prm.Pz) * layout.NumSubTiles(g.XC(), prm.Px)
	u := 0
	buf := e.recvBuf(slot, ztl)
	layout.SubTiles(ztl, prm.Pz, func(z0, z1 int) {
		layout.SubTiles(g.XC(), prm.Px, func(x0, x1 int) {
			t := c.Now()
			g.ScatterSubtile(e.work, buf, fast, zt0, ztl, z0, z1, x0, x1)
			now := c.Now()
			b.Unpack += now - t
			e.trc.add("Unpack", t, now, tile)
			doTests(c, window, testsDue(prm.Fp, u, nSub), b)
			t = c.Now()
			// Batched over the layout's contiguous runs (see FFTySub).
			if fast {
				for lx := x0; lx < x1; lx++ {
					base := g.RowYBase(fast, zt0+z0, lx)
					e.planY.TransformRows(e.work[base:], z1-z0, g.Ny)
				}
			} else {
				for z := zt0 + z0; z < zt0+z1; z++ {
					base := g.RowYBase(fast, z, x0)
					e.planY.TransformRows(e.work[base:], x1-x0, g.Ny)
				}
			}
			now = c.Now()
			b.FFTy += now - t
			e.trc.add("FFTy", t, now, tile)
			doTests(c, window, testsDue(prm.Fy, u, nSub), b)
			u++
		})
	})
}

// postTile starts the reverse non-blocking all-to-all for one tile: the
// send side carries the forward transform's receive-format blocks.
func (e *backEngine) postTile(slot, ztl int) mpi.Request {
	e.g.RecvCounts(ztl, e.sendCounts) // reverse direction
	e.g.SendCounts(ztl, e.recvCounts)
	return e.comm.Ialltoallv(e.sendBuf(slot, ztl), e.sendCounts, e.recvBuf(slot, ztl), e.recvCounts)
}

func (e *backEngine) alltoallTile(slot, ztl int) {
	e.g.RecvCounts(ztl, e.sendCounts)
	e.g.SendCounts(ztl, e.recvCounts)
	e.comm.Alltoallv(e.sendBuf(slot, ztl), e.sendCounts, e.recvBuf(slot, ztl), e.recvCounts)
}

func (e *backEngine) runOverlapped(rs *runState, prm Params, fast bool, b *Breakdown) {
	c := e.comm
	tl, err := layout.NewTiling(e.g.Nz, prm.T)
	if err != nil {
		panic(err)
	}
	k := tl.NumTiles()
	w := prm.W
	slots := w + 1
	rs.reset(c, k)
	reqs := rs.reqs
	mon := &rs.mon
	for i := 0; i < k+w; i++ {
		if i < k {
			lo := i - w
			if lo < 0 {
				lo = 0
			}
			e.fftxRepack(prm, tl, i, i%slots, fast, reqs[lo:i], b)
		}
		if i >= w {
			t := c.Now()
			ok := mon.WaitTile(c, reqs[i-w])
			now := c.Now()
			b.Wait += now - t
			e.trc.add("Wait", t, now, i-w)
			if !ok {
				e.downgrade(prm, fast, tl, reqs, i, b)
				return
			}
		}
		if i < k {
			t := c.Now()
			reqs[i] = e.postTile(i%slots, tl.TileLen(i))
			now := c.Now()
			b.Ialltoall += now - t
			e.trc.add("Ialltoall", t, now, i)
		}
		if i >= w {
			j := i - w
			hi := j + w + 1
			if hi > k {
				hi = k
			}
			e.scatterFFTy(prm, tl, j, j%slots, fast, reqs[j+1:hi], b)
		}
	}
}

// downgrade finishes the backward transform on the blocking path after the
// overlapped loop gave up at iteration i, mirroring downgradeForward: the
// posted window is drained with plain Waits, the already-repacked tile i
// goes through a blocking all-to-all, and the remaining tiles run the
// per-tile blocking pipeline — one collective per tile in tile order, so
// sequence numbers stay aligned with ranks still running overlapped.
func (e *backEngine) downgrade(prm Params, fast bool, tl layout.Tiling, reqs []mpi.Request, i int, b *Breakdown) {
	c := e.comm
	k := tl.NumTiles()
	w := prm.W
	slots := w + 1
	b.Downgrades++
	e.trc.instant("Downgrade", c.Now(), i-w)
	hi := i
	if hi > k {
		hi = k
	}
	for j := i - w; j < hi; j++ {
		t := c.Now()
		c.Wait(reqs[j])
		now := c.Now()
		b.Wait += now - t
		e.trc.add("Wait", t, now, j)
		e.scatterFFTy(prm, tl, j, j%slots, fast, nil, b)
	}
	if i < k {
		t := c.Now()
		e.alltoallTile(i%slots, tl.TileLen(i))
		now := c.Now()
		b.Wait += now - t
		e.trc.add("Alltoall", t, now, i)
		e.scatterFFTy(prm, tl, i, i%slots, fast, nil, b)
	}
	for j := i + 1; j < k; j++ {
		e.fftxRepack(prm, tl, j, j%slots, fast, nil, b)
		t := c.Now()
		e.alltoallTile(j%slots, tl.TileLen(j))
		now := c.Now()
		b.Wait += now - t
		e.trc.add("Alltoall", t, now, j)
		e.scatterFFTy(prm, tl, j, j%slots, fast, nil, b)
	}
}

func (e *backEngine) runBlocking(prm Params, fast bool, b *Breakdown) {
	c := e.comm
	tl, err := layout.NewTiling(e.g.Nz, prm.T)
	if err != nil {
		panic(err)
	}
	for i := 0; i < tl.NumTiles(); i++ {
		e.fftxRepack(prm, tl, i, 0, fast, nil, b)
		t := c.Now()
		e.alltoallTile(0, tl.TileLen(i))
		now := c.Now()
		b.Wait += now - t
		e.trc.add("Alltoall", t, now, i)
		e.scatterFFTy(prm, tl, i, 0, fast, nil, b)
	}
}

// Reverse direction: recv-format buffers go out, send-format ones come in.
func (e *backEngine) sendBuf(slot, ztl int) []complex128 {
	return slotBuf(&e.sendBufs, slot, e.g.RecvBufLen(ztl), e.pooled)
}

func (e *backEngine) recvBuf(slot, ztl int) []complex128 {
	return slotBuf(&e.recvBufs, slot, e.g.SendBufLen(ztl), e.pooled)
}
