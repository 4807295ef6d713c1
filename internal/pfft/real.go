package pfft

import (
	"fmt"

	"offt/internal/fft"
	"offt/internal/layout"
	"offt/internal/mpi"
)

// EngineOpt configures a RealEngine beyond the required arguments.
type EngineOpt func(*engineConfig)

type engineConfig struct {
	workers int
}

// WithEngineWorkers fans the intra-rank kernels (FFTz, FFTy, Pack,
// Unpack, FFTx) across n goroutines. n <= 1 keeps the serial,
// allocation-free path.
func WithEngineWorkers(n int) EngineOpt {
	return func(c *engineConfig) { c.workers = n }
}

// RealEngine executes the algorithm on actual complex128 data over any
// mpi.Comm (normally the mem engine). It is the numerically verified
// implementation; the cost-model engine in package model mirrors its
// control flow in virtual time.
type RealEngine struct {
	g    layout.Grid
	comm mpi.Comm

	src  []complex128 // input x-slab, x-y-z layout; FFTz reads it and nothing writes it
	in   []complex128 // two-pass FFTz's output, same layout (TH only); made on first use
	work []complex128 // post-transpose z-x-y slab; FFTz writes it on the fused path
	out  []complex128 // output z-y-x y-slab

	planZ, planY, planX *fft.Plan

	// pool is non-nil only with WithEngineWorkers(n>1); every kernel method
	// branches on it at the call site so the serial path never builds a
	// closure (which would escape to the heap via the jobs channel).
	pool                   *kernelPool
	planZs, planYs, planXs []*fft.Plan // per-chunk clones, len = workers

	sendBufs, recvBufs [][]complex128 // communication slots
	sendCounts         []int
	recvCounts         []int
}

var _ Engine = (*RealEngine)(nil)

// NewRealEngine prepares a real-data engine for one rank. slab is the
// rank's input x-slab in x-y-z layout (length g.InSize()); FFTz only reads
// it. slab may be nil when every execution is handed its input by Reset.
// flag selects the planner effort for the 1-D FFT plans. dir is the
// transform direction of the 1-D kernels (Forward for the usual forward
// 3-D FFT).
func NewRealEngine(g layout.Grid, comm mpi.Comm, slab []complex128, dir fft.Direction, flag fft.Flag, opts ...EngineOpt) (*RealEngine, error) {
	if slab != nil && len(slab) != g.InSize() {
		return nil, fmt.Errorf("pfft: slab length %d, want %d", len(slab), g.InSize())
	}
	if comm.Rank() != g.Rank || comm.Size() != g.P {
		return nil, fmt.Errorf("pfft: comm rank/size %d/%d does not match grid %d/%d", comm.Rank(), comm.Size(), g.Rank, g.P)
	}
	var cfg engineConfig
	for _, o := range opts {
		o(&cfg)
	}
	e := &RealEngine{
		g:     g,
		comm:  comm,
		src:   slab,
		work:  make([]complex128, g.InSize()),
		out:   make([]complex128, g.OutSize()),
		planZ: fft.Plan1DCached(g.Nz, dir, flag).Clone(),
		planY: fft.Plan1DCached(g.Ny, dir, flag).Clone(),
		planX: fft.Plan1DCached(g.Nx, dir, flag).Clone(),
	}
	if cfg.workers > 1 {
		e.pool = newKernelPool(cfg.workers)
		e.planZs = fft.Plan1DClones(g.Nz, dir, flag, cfg.workers)
		e.planYs = fft.Plan1DClones(g.Ny, dir, flag, cfg.workers)
		e.planXs = fft.Plan1DClones(g.Nx, dir, flag, cfg.workers)
	}
	e.sendCounts = make([]int, g.P)
	e.recvCounts = make([]int, g.P)
	return e, nil
}

// Reset points the engine at a new input slab so a Plan can execute many
// transforms on one engine. The slab is only read: FFTz transforms it into
// an engine-owned slab, so it may lie in memory the engine's owner shares
// with other ranks (a caller's full array).
func (e *RealEngine) Reset(slab []complex128) error {
	if len(slab) != e.g.InSize() {
		return fmt.Errorf("pfft: slab length %d, want %d", len(slab), e.g.InSize())
	}
	e.src = slab
	return nil
}

// PresizeSlots grows the given number of communication slot buffers to
// hold a tile of z-length ztl, so steady-state execution never allocates.
func (e *RealEngine) PresizeSlots(slots, ztl int) {
	for s := 0; s < slots; s++ {
		e.sendBuf(s, ztl)
		e.recvBuf(s, ztl)
	}
}

// Close stops the engine's worker pool.
func (e *RealEngine) Close() {
	if e.pool != nil {
		e.pool.Close()
		e.pool = nil
	}
}

// Grid returns the rank's geometry.
func (e *RealEngine) Grid() layout.Grid { return e.g }

// Comm returns the rank's communicator.
func (e *RealEngine) Comm() mpi.Comm { return e.comm }

// Output returns the rank's z-y-x output y-slab. The slab is owned by the
// engine: a reused Plan overwrites it on the next execution.
func (e *RealEngine) Output() []complex128 { return e.out }

// FFTz transforms every z row of the input slab through the batched
// multi-row engine into the engine's own x-y-z slab, which Transpose then
// rearranges: the two-pass path only TH takes. The input is let go of
// here, its last reader, since it may be a caller's array.
func (e *RealEngine) FFTz() {
	if e.in == nil {
		e.in = make([]complex128, e.g.InSize())
	}
	rows := e.g.XC() * e.g.Ny
	in, src := e.in, e.src
	e.src = nil
	if e.pool != nil {
		nz := e.g.Nz
		e.pool.parallel(rows, func(w, lo, hi int) {
			e.planZs[w].TransformRowsTo(in[lo*nz:hi*nz], src[lo*nz:hi*nz], hi-lo, nz)
		})
		return
	}
	e.planZ.TransformRowsTo(in, src, rows, e.g.Nz)
}

// fusedFFTz runs FFTz and variant v's Transpose as one pass when e is a
// RealEngine, with the same bits as the two steps, and reports whether it
// did; otherwise the caller runs the two steps (TH's plain rearrangement,
// and the cost model, which charges both as the paper's FFTW Baseline).
func fusedFFTz(e Engine, v Variant) bool {
	re, ok := e.(*RealEngine)
	if !ok || v == TH || v == TH0 {
		return false
	}
	src := re.src
	re.src = nil // its last reader: the input may be a caller's array
	if re.pool != nil {
		re.pool.parallel(re.g.XC()*re.g.Ny, func(w, lo, hi int) {
			fftzRows(re.planZs[w], re.g, src, re.work, true, lo, hi)
		})
		return true
	}
	fftzRows(re.planZ, re.g, src, re.work, true, 0, re.g.XC()*re.g.Ny)
	return true
}

// fftzRows transforms z rows [lo, hi) of the XC·Ny rows between the x-y-z
// slab xyz, where row (lx, y) is contiguous, and the z-x-y post-transpose
// slab post, where it is column y of plane lx, z stepping by XC·Ny. toPost
// reads xyz and writes post (the forward FFTz); otherwise post is read and
// xyz written (FFTz⁻¹). A block of consecutive y rows is a run of adjacent
// elements on the post side.
func fftzRows(p *fft.Plan, g layout.Grid, xyz, post []complex128, toPost bool, lo, hi int) {
	ny, nz, zs := g.Ny, g.Nz, g.RowYBase(1, 0)
	for r := lo; r < hi; {
		lx, y0 := r/ny, r%ny
		n := min(ny-y0, hi-r)
		a, b := xyz[r*nz:], post[g.RowYBase(0, lx)+y0:]
		if toPost {
			p.StridedRowsTo(b, a, n, nz, 1, 1, zs)
		} else {
			p.StridedRowsTo(a, b, n, 1, zs, nz, 1)
		}
		r += n
	}
}

// Transpose rearranges FFTz's slab into the z-x-y layout with a
// deliberately naive element loop instead of the cache-blocked kernel,
// mirroring the paper's observation that TH's rearrangement is slower than
// FFTW's tuned one. Only TH/TH-0 reach it: every other variant runs it
// fused into FFTz (fusedFFTz).
func (e *RealEngine) Transpose(Variant) {
	xc, ny, nz := e.g.XC(), e.g.Ny, e.g.Nz
	for lx := 0; lx < xc; lx++ {
		for y := 0; y < ny; y++ {
			for z := 0; z < nz; z++ {
				e.work[(z*xc+lx)*ny+y] = e.in[(lx*ny+y)*nz+z]
			}
		}
	}
}

// FFTySub transforms the y rows of one Pack sub-tile. In the z-x-y slab
// the lx rows of one z are adjacent, and each such run goes through the
// batched multi-row engine. Worker-pool chunks split over z, still
// entirely inside this one sub-tile call, so the MPI_Test cadence around
// it is unchanged.
func (e *RealEngine) FFTySub(zt0, z0, z1, x0, x1 int) {
	ny := e.g.Ny
	if e.pool != nil {
		e.pool.parallel(z1-z0, func(w, lo, hi int) {
			p := e.planYs[w]
			for z := zt0 + z0 + lo; z < zt0+z0+hi; z++ {
				p.TransformRows(e.work[e.g.RowYBase(z, x0):], x1-x0, ny)
			}
		})
		return
	}
	for z := zt0 + z0; z < zt0+z1; z++ {
		e.planY.TransformRows(e.work[e.g.RowYBase(z, x0):], x1-x0, ny)
	}
}

// PackSub packs one sub-tile into the slot's send buffer.
func (e *RealEngine) PackSub(slot, zt0, ztl, z0, z1, x0, x1 int) {
	buf := e.sendBuf(slot, ztl)
	if e.pool != nil {
		e.pool.parallel(e.g.P, func(w, r0, r1 int) {
			e.g.PackSubtileRanks(buf, e.work, zt0, ztl, x0, x1, z0, z1, r0, r1)
		})
		return
	}
	e.g.PackSubtile(buf, e.work, zt0, ztl, x0, x1, z0, z1)
}

// PostTile starts the non-blocking all-to-all for the slot's tile.
func (e *RealEngine) PostTile(slot int, ztl int) mpi.Request {
	e.g.SendCounts(ztl, e.sendCounts)
	e.g.RecvCounts(ztl, e.recvCounts)
	return e.comm.Ialltoallv(e.sendBuf(slot, ztl), e.sendCounts, e.recvBuf(slot, ztl), e.recvCounts)
}

// UnpackSub unpacks one sub-tile from the slot's receive buffer into the
// output slab.
func (e *RealEngine) UnpackSub(slot, zt0, ztl, z0, z1, y0, y1 int) {
	buf := e.recvBuf(slot, ztl)
	if e.pool != nil {
		e.pool.parallel(e.g.P, func(w, s0, s1 int) {
			e.g.UnpackSubtileRanks(e.out, buf, zt0, ztl, y0, y1, z0, z1, s0, s1)
		})
		return
	}
	e.g.UnpackSubtile(e.out, buf, zt0, ztl, y0, y1, z0, z1)
}

// FFTxSub transforms the x rows of one Unpack sub-tile, batched over the
// z-y-x slab's contiguous runs (the ly rows of one z). Pool chunks split
// over z inside this one call (see FFTySub for the Test-cadence argument).
func (e *RealEngine) FFTxSub(zt0, z0, z1, y0, y1 int) {
	nx := e.g.Nx
	if e.pool != nil {
		e.pool.parallel(z1-z0, func(w, lo, hi int) {
			p := e.planXs[w]
			for z := zt0 + z0 + lo; z < zt0+z0+hi; z++ {
				p.TransformRows(e.out[e.g.RowXBase(y0, z):], y1-y0, nx)
			}
		})
		return
	}
	for z := zt0 + z0; z < zt0+z1; z++ {
		e.planX.TransformRows(e.out[e.g.RowXBase(y0, z):], y1-y0, nx)
	}
}

// sendBuf returns slot's send buffer sized for a tile of z-length ztl,
// growing the slot lazily.
func (e *RealEngine) sendBuf(slot, ztl int) []complex128 {
	return slotBuf(&e.sendBufs, slot, e.g.SendBufLen(ztl))
}

func (e *RealEngine) recvBuf(slot, ztl int) []complex128 {
	return slotBuf(&e.recvBufs, slot, e.g.RecvBufLen(ztl))
}
