package pencil

import (
	"fmt"

	"offt/internal/fft"
	"offt/internal/mpi"
	"offt/internal/pfft"
)

// Plan is the create-once / execute-many pencil transform for one rank —
// the 2-D counterpart of pfft.Plan. Construction clones the 1-D FFT plans,
// sizes every communication slot and binds the phases of its two exchanges
// to one pfft.Pipeline; Forward and Backward then run allocation-free in
// steady state.
//
// Exchange A swaps z↔y within the row group, tiled along x; exchange B
// swaps y↔x within the column group, tiled along z. Each is described once
// (see exchange) and run as a pfft.Phase in either direction: forward is
// A then B, tiled from prm and run as Algorithm 1 with the slab's
// downgrade machinery; backward is B then A with the sides swapped, each
// one whole-extent blocking tile. The Baseline and NEW0 variants run the
// forward phases with a single whole-extent tile each and no Test calls —
// one big exchange per phase, like Forward3D.
type Plan struct {
	c    mpi.Comm
	g    Grid2D
	prm  Params2D
	pl   *pfft.Pipeline
	cost *cost // set on the simulator: every step charges virtual time

	z, y, x array    // the z-, y- and x-pencils
	a, b    exchange // z↔y over the row group, y↔x over the column group
	fwd     [2]run   // A then B
	bwd     [2]run   // B then A, sides swapped

	in, out []complex128 // backward (lazy) and forward results

	sendCounts, recvCounts []int
	send, recv             [][]complex128 // slot buffers every run shares

	flag fft.Flag
	last pfft.Breakdown
}

// run is one phase of an execution: exchange x from side from, k tiles of
// size t, at most w in flight.
type run struct {
	x             *exchange
	from, t, k, w int
	ph            pfft.Phase
}

// newRun binds a run of x from side from in FFT direction dir (0 forward,
// 1 backward); first marks its direction's first run, whose Front
// transforms before packing.
func (p *Plan) newRun(x *exchange, from, dir, t, w int, first bool) run {
	return run{x: x, from: from, t: t, k: x.tiles(t), w: w, ph: p.phase(x, from, dir, t, first)}
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
	p := newPlan(c, g, prm)
	p.flag = flag
	p.z.fft[0] = fft.Plan1DCached(g.Nz, fft.Forward, flag).Clone()
	p.y.fft[0] = fft.Plan1DCached(g.Ny, fft.Forward, flag).Clone()
	p.x.fft[0] = fft.Plan1DCached(g.Nx, fft.Forward, flag).Clone()
	p.y.data = make([]complex128, g.MidSize())
	p.out = make([]complex128, g.OutSize())
	// Each run needs slots 0..w sized for its largest tile; the runs follow
	// one another, so they share the slots.
	var sendN, recvN []int
	for _, r := range [...]run{p.fwd[0], p.fwd[1], p.bwd[0], p.bwd[1]} {
		src, dst := &r.x.sides[r.from], &r.x.sides[1-r.from]
		t := min(r.t, src.ext[r.x.tiled])
		for s := 0; s <= r.w; s++ {
			if s == len(sendN) {
				sendN, recvN = append(sendN, 0), append(recvN, 0)
			}
			sendN[s] = max(sendN[s], r.x.elems(src, 0, t))
			recvN[s] = max(recvN[s], r.x.elems(dst, 0, t))
		}
	}
	for s := range sendN {
		p.send = append(p.send, make([]complex128, sendN[s]))
		p.recv = append(p.recv, make([]complex128, recvN[s]))
	}
	return p, nil
}

// newPlan builds the geometry every user shares: the three pencils, the two
// exchanges between them and the phases of both directions. It moves no
// data until NewPlan gives it FFT plans, arrays and slots.
func newPlan(c mpi.Comm, g Grid2D, prm Params2D) *Plan {
	p := &Plan{
		c: c, g: g, prm: prm, pl: pfft.NewPipeline(c),
		z: array{ext: [3]int{g.XC(), g.YC(), g.Nz}, order: [3]int{axX, axY, axZ}},
		y: array{ext: [3]int{g.XC(), g.Ny, g.ZC()}, order: [3]int{axX, axZ, axY}},
		x: array{ext: [3]int{g.Nx, g.Y2C(), g.ZC()}, order: [3]int{axY, axZ, axX}},

		sendCounts: make([]int, g.P()),
		recvCounts: make([]int, g.P()),
	}
	p.a = exchange{order: [3]int{axX, axY, axZ}, tiled: axX, tileMax: g.XD.MaxCount(),
		sides: [2]side{{&p.z, g.ZD}, {&p.y, g.YD}}}
	p.b = exchange{order: [3]int{axX, axZ, axY}, tiled: axZ, tileMax: g.ZD.MaxCount(),
		sides: [2]side{{&p.y, g.YD2}, {&p.x, g.XD}}}
	for cj := 0; cj < g.PC; cj++ {
		p.a.group = append(p.a.group, g.GlobalRank(g.RI, cj))
	}
	for ri := 0; ri < g.PR; ri++ {
		p.b.group = append(p.b.group, g.GlobalRank(ri, g.CI))
	}
	p.fwd = [2]run{p.newRun(&p.a, 0, 0, prm.TA, prm.WA, true), p.newRun(&p.b, 0, 0, prm.TB, prm.WB, false)}
	p.bwd = [2]run{p.newRun(&p.b, 1, 1, p.b.tileMax, 0, true), p.newRun(&p.a, 1, 1, p.a.tileMax, 0, false)}
	return p
}

// execute runs one execution's two phases on the pipeline.
func (p *Plan) execute(runs *[2]run) {
	p.pl.Begin(p.prm.Comm)
	for i := range runs {
		p.pl.Run(runs[i].k, runs[i].w, &runs[i].ph)
	}
	p.last = p.pl.End()
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
	p.z.data, p.x.data = slab, p.out
	p.execute(&p.fwd)
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

// Backward executes one inverse transform: xp is this rank's spectrum
// x-pencil in y-z-x layout (length OutSize(), consumed — i.e. the forward
// output distribution), and the returned z-pencil in x-y-z layout matches
// the forward input distribution. Like the slab path the round trip is
// unnormalized: Forward then Backward multiplies by Nx·Ny·Nz. Both inverse
// phases run blocking (one whole-extent collective each, on every
// variant), which keeps collective sequence numbers aligned across ranks.
// The inverse 1-D plans and the result pencil are built on the first call,
// so forward-only plans pay nothing for them.
func (p *Plan) Backward(xp []complex128) ([]complex128, pfft.Breakdown, error) {
	if len(xp) != p.g.OutSize() {
		return nil, pfft.Breakdown{}, fmt.Errorf("pencil: spectrum pencil length %d, want %d", len(xp), p.g.OutSize())
	}
	if p.z.fft[1] == nil {
		g := p.g
		p.z.fft[1] = fft.Plan1DCached(g.Nz, fft.Backward, p.flag).Clone()
		p.y.fft[1] = fft.Plan1DCached(g.Ny, fft.Backward, p.flag).Clone()
		p.x.fft[1] = fft.Plan1DCached(g.Nx, fft.Backward, p.flag).Clone()
	}
	if p.in == nil {
		p.in = make([]complex128, p.g.InSize())
	}
	p.z.data, p.x.data = p.in, xp
	p.execute(&p.bwd)
	return p.in, p.last, nil
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
