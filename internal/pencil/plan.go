package pencil

import (
	"fmt"

	"offt/internal/fft"
	"offt/internal/mpi"
	"offt/internal/pfft"
)

// Plan is the create-once / execute-many pencil transform for one rank —
// the 2-D counterpart of pfft.Plan. Construction clones the 1-D FFT plans,
// sizes every communication slot and scratch buffer, and binds the tile
// functions of its exchange phases to one pfft.Pipeline; Forward and
// Backward then run allocation-free in steady state.
//
// A forward transform is two phases (pfft.Phase): phase A is FFTz + pack,
// the row-group exchange (y↔z splits), unpack + FFTy, tiled along the local
// x extent; phase B is pack, the column-group exchange (x↔y splits),
// unpack + FFTx, tiled along the local z extent. The pipeline runs each as
// Algorithm 1 with the same downgrade machinery as the slab transform.
// Backward is the two inverse phases, each one whole-extent blocking tile.
//
// The Baseline and NEW0 variants run the forward phases with a single
// whole-extent tile each and no Test calls — one big exchange per phase,
// like Forward3D.
type Plan struct {
	c      mpi.Comm
	g      Grid2D
	prm    Params2D
	pl     *pfft.Pipeline
	kA, kB int // forward tile counts

	fz, fy, fx *fft.Plan // forward 1-D plans
	bz, by, bx *fft.Plan // backward 1-D plans (lazy)

	src []complex128 // input of the execution in progress
	mid []complex128 // phase-1 pencil [xc][zc][Ny], y contiguous
	out []complex128 // output x-pencil [y2c][zc][Nx], x contiguous
	in  []complex128 // backward result z-pencil [xc][yc][Nz] (lazy)

	sendCounts, recvCounts []int
	sendA, recvA           [][]complex128 // phase-A slot buffers
	sendB, recvB           [][]complex128 // phase-B slot buffers
	bsend, brecv           []complex128   // backward whole-phase buffers (lazy)

	fwdA, fwdB pfft.Phase
	bwdB, bwdA pfft.Phase // lazy

	flag fft.Flag
	last pfft.Breakdown
}

// NewPlan builds a reusable pencil plan for this rank. Supported variants:
// NEW (overlapped pipeline in both exchange phases, tiling from prm),
// Baseline and NEW0 (one whole-extent tile per phase). A zero Params2D
// means DefaultParams2D.
func NewPlan(c mpi.Comm, g Grid2D, v pfft.Variant, prm Params2D, flag fft.Flag) (*Plan, error) {
	if c.Size() != g.P() || c.Rank() != g.Rank {
		return nil, fmt.Errorf("pencil: comm rank/size %d/%d does not match grid %d/%d", c.Rank(), c.Size(), g.Rank, g.P())
	}
	if prm == (Params2D{}) {
		prm = DefaultParams2D(g)
	}
	switch v {
	case pfft.NEW:
		// keep prm as given
	case pfft.Baseline, pfft.NEW0:
		// Blocking variants override the tiling but keep the caller's
		// exchange schedule.
		prm = wholeExtent(g, prm.Comm)
	default:
		return nil, fmt.Errorf("pencil: variant %v is not supported by the pencil decomposition (use baseline, new, or new0)", v)
	}
	if err := prm.Validate(g); err != nil {
		return nil, err
	}
	p := &Plan{
		c: c, g: g, prm: prm, flag: flag, pl: pfft.NewPipeline(c),
		kA: g.tilesA(prm.TA), kB: g.tilesB(prm.TB),

		fz:  fft.Plan1DCached(g.Nz, fft.Forward, flag).Clone(),
		fy:  fft.Plan1DCached(g.Ny, fft.Forward, flag).Clone(),
		fx:  fft.Plan1DCached(g.Nx, fft.Forward, flag).Clone(),
		mid: make([]complex128, g.MidSize()),
		out: make([]complex128, g.OutSize()),

		sendCounts: make([]int, g.P()),
		recvCounts: make([]int, g.P()),
	}
	yc, zc, y2c := g.YC(), g.ZC(), g.Y2C()
	xc := g.XC()
	p.sendA = slotBuffers(prm.WA+1, prm.TA*yc*g.Nz)
	p.recvA = slotBuffers(prm.WA+1, prm.TA*g.Ny*zc)
	p.sendB = slotBuffers(prm.WB+1, xc*g.Ny*prm.TB)
	p.recvB = slotBuffers(prm.WB+1, g.Nx*y2c*prm.TB)
	p.fwdA = pfft.Phase{Front: p.fftzPackA, Post: p.postA, Back: p.unpackFFTyA}
	p.fwdB = pfft.Phase{Front: p.packB, Post: p.postB, Back: p.unpackFFTxB}
	return p, nil
}

func slotBuffers(slots, size int) [][]complex128 {
	bufs := make([][]complex128, slots)
	for i := range bufs {
		bufs[i] = make([]complex128, size)
	}
	return bufs
}

// Grid returns the plan's pencil geometry.
func (p *Plan) Grid() Grid2D { return p.g }

// Params returns the effective overlap parameters.
func (p *Plan) Params() Params2D { return p.prm }

// Breakdown returns the per-step breakdown of the most recent execution.
func (p *Plan) Breakdown() pfft.Breakdown { return p.last }

// EnableTrace turns on step-event recording (see pfft.Pipeline.EnableTrace):
// every subsequent execution rebuilds the timeline returned by Trace, in
// which phase-B tiles number after phase-A tiles.
func (p *Plan) EnableTrace() { p.pl.EnableTrace() }

// Trace reports the step-event timeline of the most recent execution
// (nil unless EnableTrace was called). The slice aliases plan-owned
// storage and is valid until the next execution.
func (p *Plan) Trace() []pfft.StepEvent { return p.pl.Events() }

// Close releases nothing today but completes the create/execute/close
// lifecycle shared with pfft.Plan.
func (p *Plan) Close() {}

// Forward executes one forward transform. slab is this rank's input
// z-pencil in x-y-z layout (length InSize(), consumed); the returned
// x-pencil in y-z-x layout is plan-owned and valid until the next
// execution.
func (p *Plan) Forward(slab []complex128) ([]complex128, pfft.Breakdown, error) {
	if len(slab) != p.g.InSize() {
		return nil, pfft.Breakdown{}, fmt.Errorf("pencil: slab length %d, want %d", len(slab), p.g.InSize())
	}
	p.src = slab
	p.pl.Begin(p.prm.Comm)
	p.pl.Run(p.kA, p.prm.WA, &p.fwdA)
	p.pl.Run(p.kB, p.prm.WB, &p.fwdB)
	p.last = p.pl.End()
	return p.out, p.last, nil
}

// ForwardFull is Forward between full Nx×Ny×Nz arrays in x-y-z layout that
// every rank of the world is handed (the counterpart of
// pfft.Plan.ForwardFull): the rank copies its z-pencil of src into the
// plan's — Backward's result buffer, which no forward kernel touches past
// phase A's FFTz and pack — transforms it and writes its x-pencil of the
// spectrum into dst, which may be src. The two times are the copies', on
// the communicator's clock.
func (p *Plan) ForwardFull(dst, src []complex128) (b pfft.Breakdown, scatterNs, gatherNs int64, err error) {
	if p.in == nil {
		p.in = make([]complex128, p.g.InSize())
	}
	t := p.c.Now()
	ScatterPencilInto(p.in, src, p.g)
	scatterNs = p.c.Now() - t
	out, b, err := p.Forward(p.in)
	t = p.c.Now()
	if err == nil {
		GatherPencilInto(dst, out, p.g)
	}
	return b, scatterNs, p.c.Now() - t, err
}

// BackwardFull is the inverse of ForwardFull. The spectrum x-pencil is
// staged in the forward output buffer, which no inverse kernel touches past
// phase B's FFTx⁻¹ and pack.
func (p *Plan) BackwardFull(dst, src []complex128) (b pfft.Breakdown, scatterNs, gatherNs int64, err error) {
	t := p.c.Now()
	ScatterSpectrumInto(p.out, src, p.g)
	scatterNs = p.c.Now() - t
	in, b, err := p.Backward(p.out)
	t = p.c.Now()
	if err == nil {
		GatherInputInto(dst, in, p.g)
	}
	return b, scatterNs, p.c.Now() - t, err
}

// ---- Forward phase A: tiles along x, exchange within the row group ----

func (p *Plan) fftzPackA(i, slot int, win []mpi.Request) {
	g, pl := p.g, p.pl
	x0, x1 := tileRange(i, p.prm.TA, g.XC())
	yc := g.YC()
	t := p.c.Now()
	p.fz.Batch(p.src[x0*yc*g.Nz:], (x1-x0)*yc, g.Nz)
	pl.Step(&pl.B.FFTz, "FFTz", t, i)
	pl.Tests(win, p.prm.F)
	t = p.c.Now()
	buf := p.sendA[slot][:(x1-x0)*yc*g.Nz]
	off := 0
	for cj := 0; cj < g.PC; cj++ {
		zs, zcnt := g.ZD.Start(cj), g.ZD.Count(cj)
		for lx := x0; lx < x1; lx++ {
			for ly := 0; ly < yc; ly++ {
				row := p.src[(lx*yc+ly)*g.Nz:]
				copy(buf[off:off+zcnt], row[zs:zs+zcnt])
				off += zcnt
			}
		}
	}
	pl.Step(&pl.B.Pack, "Pack", t, i)
	pl.Tests(win, p.prm.F)
}

func (p *Plan) postA(i, slot int) mpi.Request {
	g := p.g
	x0, x1 := tileRange(i, p.prm.TA, g.XC())
	g.countsA(x1-x0, p.sendCounts, p.recvCounts)
	return p.c.Ialltoallv(p.sendA[slot][:(x1-x0)*g.YC()*g.Nz], p.sendCounts,
		p.recvA[slot][:(x1-x0)*g.Ny*g.ZC()], p.recvCounts)
}

func (p *Plan) unpackFFTyA(i, slot int, win []mpi.Request) {
	g, pl := p.g, p.pl
	x0, x1 := tileRange(i, p.prm.TA, g.XC())
	zc := g.ZC()
	t := p.c.Now()
	buf := p.recvA[slot][:(x1-x0)*g.Ny*zc]
	roff := 0
	for cj := 0; cj < g.PC; cj++ {
		ys, ycnt := g.YD.Start(cj), g.YD.Count(cj)
		for lx := x0; lx < x1; lx++ {
			for ly := 0; ly < ycnt; ly++ {
				for lz := 0; lz < zc; lz++ {
					p.mid[(lx*zc+lz)*g.Ny+ys+ly] = buf[roff]
					roff++
				}
			}
		}
	}
	pl.Step(&pl.B.Unpack, "Unpack", t, i)
	pl.Tests(win, p.prm.F)
	t = p.c.Now()
	p.fy.Batch(p.mid[x0*zc*g.Ny:], (x1-x0)*zc, g.Ny)
	pl.Step(&pl.B.FFTy, "FFTy", t, i)
	pl.Tests(win, p.prm.F)
}

// ---- Forward phase B: tiles along z, exchange within the column group ----

func (p *Plan) packB(i, slot int, win []mpi.Request) {
	g, pl := p.g, p.pl
	z0, z1 := tileRange(i, p.prm.TB, g.ZC())
	xc, zc := g.XC(), g.ZC()
	t := p.c.Now()
	buf := p.sendB[slot][:xc*g.Ny*(z1-z0)]
	off := 0
	for ri := 0; ri < g.PR; ri++ {
		ys, ycnt := g.YD2.Start(ri), g.YD2.Count(ri)
		for lx := 0; lx < xc; lx++ {
			for lz := z0; lz < z1; lz++ {
				row := p.mid[(lx*zc+lz)*g.Ny:]
				copy(buf[off:off+ycnt], row[ys:ys+ycnt])
				off += ycnt
			}
		}
	}
	pl.Step(&pl.B.Pack, "Pack", t, i)
	pl.Tests(win, p.prm.F)
}

func (p *Plan) postB(i, slot int) mpi.Request {
	g := p.g
	z0, z1 := tileRange(i, p.prm.TB, g.ZC())
	g.countsB(z1-z0, p.sendCounts, p.recvCounts)
	return p.c.Ialltoallv(p.sendB[slot][:g.XC()*g.Ny*(z1-z0)], p.sendCounts,
		p.recvB[slot][:g.Nx*g.Y2C()*(z1-z0)], p.recvCounts)
}

func (p *Plan) unpackFFTxB(i, slot int, win []mpi.Request) {
	g, pl := p.g, p.pl
	z0, z1 := tileRange(i, p.prm.TB, g.ZC())
	zc, y2c := g.ZC(), g.Y2C()
	t := p.c.Now()
	buf := p.recvB[slot][:g.Nx*y2c*(z1-z0)]
	roff := 0
	for ri := 0; ri < g.PR; ri++ {
		xs, xcnt := g.XD.Start(ri), g.XD.Count(ri)
		for lx := 0; lx < xcnt; lx++ {
			for lz := z0; lz < z1; lz++ {
				for ly := 0; ly < y2c; ly++ {
					p.out[(ly*zc+lz)*g.Nx+xs+lx] = buf[roff]
					roff++
				}
			}
		}
	}
	pl.Step(&pl.B.Unpack, "Unpack", t, i)
	pl.Tests(win, p.prm.F)
	t = p.c.Now()
	for ly := 0; ly < y2c; ly++ {
		for lz := z0; lz < z1; lz++ {
			base := (ly*zc + lz) * g.Nx
			row := p.out[base : base+g.Nx]
			p.fx.Transform(row, row)
		}
	}
	pl.Step(&pl.B.FFTx, "FFTx", t, i)
	pl.Tests(win, p.prm.F)
}

// ensureBackward lazily builds the inverse 1-D plans, the backward
// exchange buffers and the inverse phases on the first Backward call, so
// forward-only plans pay nothing for them.
func (p *Plan) ensureBackward() {
	if p.bz != nil {
		return
	}
	g := p.g
	p.bz = fft.Plan1DCached(g.Nz, fft.Backward, p.flag).Clone()
	p.by = fft.Plan1DCached(g.Ny, fft.Backward, p.flag).Clone()
	p.bx = fft.Plan1DCached(g.Nx, fft.Backward, p.flag).Clone()
	if p.in == nil {
		p.in = make([]complex128, g.InSize())
	}
	sendMax := g.OutSize()
	if g.MidSize() > sendMax {
		sendMax = g.MidSize()
	}
	recvMax := g.MidSize()
	if g.InSize() > recvMax {
		recvMax = g.InSize()
	}
	p.bsend = make([]complex128, sendMax)
	p.brecv = make([]complex128, recvMax)
	p.bwdB = pfft.Phase{Front: p.ifftxPackB, Post: p.ipostB, Back: p.iunpackFFTyB}
	p.bwdA = pfft.Phase{Front: p.ipackA, Post: p.ipostA, Back: p.iunpackFFTzA}
}

// Backward executes one inverse transform: xp is this rank's spectrum
// x-pencil in y-z-x layout (length OutSize(), consumed — i.e. the forward
// output distribution), and the returned z-pencil in x-y-z layout matches
// the forward input distribution. Like the slab path the round trip is
// unnormalized: Forward then Backward multiplies by Nx·Ny·Nz. Both inverse
// phases run blocking (one whole-extent collective each, on every
// variant), which keeps collective sequence numbers aligned across ranks.
func (p *Plan) Backward(xp []complex128) ([]complex128, pfft.Breakdown, error) {
	if len(xp) != p.g.OutSize() {
		return nil, pfft.Breakdown{}, fmt.Errorf("pencil: spectrum pencil length %d, want %d", len(xp), p.g.OutSize())
	}
	p.ensureBackward()
	p.src = xp
	p.pl.Begin(p.prm.Comm)
	p.pl.Run(1, 0, &p.bwdB)
	p.pl.Run(1, 0, &p.bwdA)
	p.last = p.pl.End()
	return p.in, p.last, nil
}

// ---- Inverse phase B: return x-ranges within the column group, regather y ----

// ifftxPackB runs FFTx⁻¹ on the contiguous x rows and packs. The pack order
// to each destination mirrors the forward unpack read order exactly, so the
// exchange is a strict inverse permutation.
func (p *Plan) ifftxPackB(i, _ int, _ []mpi.Request) {
	g, pl, xp := p.g, p.pl, p.src
	zc, y2c := g.ZC(), g.Y2C()
	t := p.c.Now()
	p.bx.Batch(xp, y2c*zc, g.Nx)
	pl.Step(&pl.B.FFTx, "FFTx", t, i)
	t = p.c.Now()
	off := 0
	for ri := 0; ri < g.PR; ri++ {
		xs, xcnt := g.XD.Start(ri), g.XD.Count(ri)
		for lx := 0; lx < xcnt; lx++ {
			for lz := 0; lz < zc; lz++ {
				for ly := 0; ly < y2c; ly++ {
					p.bsend[off] = xp[(ly*zc+lz)*g.Nx+xs+lx]
					off++
				}
			}
		}
	}
	pl.Step(&pl.B.Pack, "Pack", t, i)
}

func (p *Plan) ipostB(_, _ int) mpi.Request {
	g := p.g
	g.countsB(g.ZC(), p.recvCounts, p.sendCounts) // reverse direction
	return p.c.Ialltoallv(p.bsend[:g.OutSize()], p.sendCounts, p.brecv[:g.MidSize()], p.recvCounts)
}

func (p *Plan) iunpackFFTyB(i, _ int, _ []mpi.Request) {
	g, pl := p.g, p.pl
	xc, zc := g.XC(), g.ZC()
	t := p.c.Now()
	roff := 0
	for ri := 0; ri < g.PR; ri++ {
		ys, ycnt := g.YD2.Start(ri), g.YD2.Count(ri)
		for lx := 0; lx < xc; lx++ {
			for lz := 0; lz < zc; lz++ {
				row := p.mid[(lx*zc+lz)*g.Ny:]
				copy(row[ys:ys+ycnt], p.brecv[roff:roff+ycnt])
				roff += ycnt
			}
		}
	}
	pl.Step(&pl.B.Unpack, "Unpack", t, i)
	t = p.c.Now()
	p.by.Batch(p.mid, xc*zc, g.Ny)
	pl.Step(&pl.B.FFTy, "FFTy", t, i)
}

// ---- Inverse phase A: return y-ranges within the row group, regather z ----

func (p *Plan) ipackA(i, _ int, _ []mpi.Request) {
	g, pl := p.g, p.pl
	xc, zc := g.XC(), g.ZC()
	t := p.c.Now()
	off := 0
	for cj := 0; cj < g.PC; cj++ {
		ys, ycnt := g.YD.Start(cj), g.YD.Count(cj)
		for lx := 0; lx < xc; lx++ {
			for ly := 0; ly < ycnt; ly++ {
				for lz := 0; lz < zc; lz++ {
					p.bsend[off] = p.mid[(lx*zc+lz)*g.Ny+ys+ly]
					off++
				}
			}
		}
	}
	pl.Step(&pl.B.Pack, "Pack", t, i)
}

func (p *Plan) ipostA(_, _ int) mpi.Request {
	g := p.g
	g.countsA(g.XC(), p.recvCounts, p.sendCounts) // reverse direction
	return p.c.Ialltoallv(p.bsend[:g.MidSize()], p.sendCounts, p.brecv[:g.InSize()], p.recvCounts)
}

func (p *Plan) iunpackFFTzA(i, _ int, _ []mpi.Request) {
	g, pl := p.g, p.pl
	xc, yc := g.XC(), g.YC()
	t := p.c.Now()
	roff := 0
	for cj := 0; cj < g.PC; cj++ {
		zs, zcnt := g.ZD.Start(cj), g.ZD.Count(cj)
		for lx := 0; lx < xc; lx++ {
			for ly := 0; ly < yc; ly++ {
				row := p.in[(lx*yc+ly)*g.Nz:]
				copy(row[zs:zs+zcnt], p.brecv[roff:roff+zcnt])
				roff += zcnt
			}
		}
	}
	pl.Step(&pl.B.Unpack, "Unpack", t, i)
	t = p.c.Now()
	p.bz.Batch(p.in, xc*yc, g.Nz)
	pl.Step(&pl.B.FFTz, "FFTz", t, i)
}

// Backward3D executes the blocking pencil-decomposed inverse 3-D FFT on
// this rank: the standalone counterpart of Forward3D. xp is the rank's
// spectrum x-pencil in y-z-x layout (the Forward3D output distribution,
// consumed); the result is the rank's z-pencil in x-y-z layout (the
// Forward3D input distribution). Unnormalized, like the forward path.
func Backward3D(c mpi.Comm, g Grid2D, xp []complex128, flag fft.Flag) ([]complex128, error) {
	p, err := NewPlan(c, g, pfft.Baseline, Params2D{}, flag)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	out, _, err := p.Backward(xp)
	if err != nil {
		return nil, err
	}
	return append([]complex128(nil), out...), nil
}
