package pfft

import (
	"fmt"

	"offt/internal/fft"
	"offt/internal/layout"
	"offt/internal/mpi"
	"offt/internal/telemetry"
)

// PlanOpt configures a Plan.
type PlanOpt func(*planConfig)

type planConfig struct {
	workers int
	reg     *telemetry.Registry
	trace   bool
}

// WithWorkers fans the plan's intra-rank kernels across n goroutines per
// rank. n <= 1 (the default) keeps the serial, allocation-free path.
func WithWorkers(n int) PlanOpt {
	return func(c *planConfig) { c.workers = n }
}

// WithTelemetry feeds per-execution step histograms, the derived
// overlap-efficiency gauge and the downgrade counter into r (metric names
// under "pfft."). A nil registry keeps telemetry off; the execution path
// then pays only a nil check.
func WithTelemetry(r *telemetry.Registry) PlanOpt {
	return func(c *planConfig) { c.reg = r }
}

// WithTrace records a StepEvent timeline of each execution, readable via
// Trace after Forward/Backward (see Pipeline.EnableTrace). The event list
// grows on first use, so it is for timeline capture, not for steady-state
// benchmarking.
func WithTrace() PlanOpt {
	return func(c *planConfig) { c.trace = true }
}

// Plan is a create-once / execute-many distributed 3-D FFT for one rank:
// it pre-sizes every communication slot and scratch slab, memoizes the 1-D
// plans and twiddles, and binds the forward and backward transforms to one
// Pipeline it keeps across executions, so the steady state performs zero
// amortized heap allocations. Every rank of the communicator must hold a
// Plan with identical variant/parameters and execute the same sequence of
// Forward/Backward calls (SPMD).
//
// Buffer ownership: the slab passed to Forward/Backward is read, never
// written — the first kernel (FFTz, FFTx⁻¹) runs out of place into a
// plan-owned slab — so it may be a range of an array other ranks are
// reading too; the returned slice is owned by the Plan and is valid only
// until the next execution. Callers that need the result past that point
// must copy it. The two directions share one post-transpose scratch slab,
// which no returned slice aliases. ForwardFull/BackwardFull are the same
// transforms between full arrays the ranks share: the first and last 1-D
// FFTs read and write the rank's pieces of them where they lie, and the
// plan holds neither array past the call.
type Plan struct {
	g    layout.Grid
	v    Variant
	prm  Params // expanded parameter set actually executed
	flag fft.Flag

	pl  *Pipeline
	eng *RealEngine
	fwd *forward
	bwd *backEngine        // lazily built on first Backward
	met *BreakdownObserver // nil unless WithTelemetry

	back   []complex128 // Backward's result x-slab (lazy; BackwardFull lands in the caller's)
	last   Breakdown
	closed bool
}

// NewPlan builds a reusable plan for one rank of communicator c with
// geometry g. All parameter expansion, validation, 1-D planning, and
// buffer sizing happens here; Execute-time work is only the transform
// itself.
func NewPlan(c mpi.Comm, g layout.Grid, v Variant, prm Params, flag fft.Flag, opts ...PlanOpt) (*Plan, error) {
	expanded, err := ExpandParams(v, g, prm)
	if err != nil {
		return nil, err
	}
	var cfg planConfig
	for _, o := range opts {
		o(&cfg)
	}
	p := &Plan{g: g, v: v, prm: expanded, flag: flag}
	// Forward points the engine at its input per call via Reset.
	p.eng, err = NewRealEngine(g, c, nil, fft.Forward, flag, WithEngineWorkers(cfg.workers))
	if err != nil {
		return nil, err
	}
	p.pl = NewPipeline(c)
	if cfg.trace {
		p.pl.EnableTrace()
	}
	p.fwd = newForward(p.pl, p.eng, v, expanded)
	p.eng.PresizeSlots(window(v, expanded)+1, p.fwd.tl.TileLen(0))
	p.met = NewBreakdownObserver(cfg.reg, "pfft")
	return p, nil
}

// Grid returns the rank's geometry.
func (p *Plan) Grid() layout.Grid { return p.g }

// Params returns the expanded parameter set the plan executes.
func (p *Plan) Params() Params { return p.prm }

// Variant returns the plan's algorithm variant.
func (p *Plan) Variant() Variant { return p.v }

// Breakdown returns the per-step breakdown of the most recent execution.
func (p *Plan) Breakdown() Breakdown { return p.last }

// Forward executes one forward transform. slab is this rank's input
// x-slab in x-y-z layout (read, not modified); the returned z-y-x y-slab
// is owned by the plan and valid until the next execution.
func (p *Plan) Forward(slab []complex128) ([]complex128, Breakdown, error) {
	if p.closed {
		return nil, Breakdown{}, fmt.Errorf("pfft: Forward on closed plan")
	}
	if err := p.eng.Reset(slab); err != nil {
		return nil, Breakdown{}, err
	}
	b := p.fwd.run()
	p.observe(b)
	return p.eng.Output(), b, nil
}

// ForwardFull is Forward between full Nx×Ny×Nz arrays in x-y-z layout that
// every rank of the world is handed: FFTz reads the rank's x-slab of src
// where it lies, and FFTx writes each transformed row of the rank's y-range
// straight to its place in dst, the corner turn folded into it. dst may be
// src — see offt.Plan's runJob for why. The engine is handed dst for this
// run only, as Reset hands it src. Nothing is copied outside the kernels,
// so scatterNs and gatherNs are 0.
func (p *Plan) ForwardFull(dst, src []complex128) (b Breakdown, scatterNs, gatherNs int64, err error) {
	if n := p.g.Nx * p.g.Ny * p.g.Nz; len(dst) != n {
		return b, 0, 0, fmt.Errorf("pfft: ForwardFull destination length %d, want %d", len(dst), n)
	}
	p.eng.dst = dst
	_, b, err = p.Forward(p.g.XSlab(src))
	p.eng.dst = nil // the caller's memory is not the engine's to keep alive
	return b, 0, 0, err
}

func (p *Plan) observe(b Breakdown) {
	p.last = b
	p.met.Observe(b)
	p.met.ObserveComm(p.prm.Comm, b)
}

// Trace returns the StepEvent timeline of the most recent execution, or
// nil when the plan was built without WithTrace. The slice is only valid
// until the next execution.
func (p *Plan) Trace() []StepEvent { return p.pl.Events() }

// Backward executes one inverse transform. slab is this rank's y-slab in
// the z-y-x forward output layout (read, not modified); the returned
// x-slab (x-y-z layout) is owned by the plan and valid until the next
// execution. Like Backward3D, the round trip is unnormalized (×Nx·Ny·Nz).
func (p *Plan) Backward(slab []complex128) ([]complex128, Breakdown, error) {
	if err := p.ensureBackward(); err != nil {
		return nil, Breakdown{}, err
	}
	if p.back == nil {
		p.back = make([]complex128, p.g.InSize())
	}
	b, err := p.bwd.run(p.back, slab, false)
	if err != nil {
		return nil, Breakdown{}, err
	}
	p.observe(b)
	return p.back, b, nil
}

// BackwardFull is Backward between full arrays (see ForwardFull): each
// tile's FFTx⁻¹ reads the rank's rows of the spectrum src where they lie
// and writes them to the engine's y-slab, the corner turn folded into it,
// and FFTz⁻¹ lands the rank's x-slab in dst where the caller wants it.
// scatterNs and gatherNs are 0.
func (p *Plan) BackwardFull(dst, src []complex128) (b Breakdown, scatterNs, gatherNs int64, err error) {
	if err := p.ensureBackward(); err != nil {
		return b, 0, 0, err
	}
	if b, err = p.bwd.run(p.g.XSlab(dst), src, true); err == nil {
		p.observe(b)
	}
	return b, 0, 0, err
}

// ensureBackward builds the backward engine, and the y-slab it works in, on
// the first inverse transform, so forward-only plans pay nothing for them.
// Its post-transpose slab is the forward engine's: each direction writes
// all of it before reading it and is done with it when it returns.
func (p *Plan) ensureBackward() error {
	if p.closed {
		return fmt.Errorf("pfft: Backward on closed plan")
	}
	if p.bwd != nil {
		return nil
	}
	e, err := newBackEngine(p.pl, p.g, p.v, p.prm, p.flag, make([]complex128, p.g.OutSize()), p.eng.work)
	p.bwd = e
	return err
}

// Close releases the plan's worker goroutines. Result slabs handed out by
// Forward/Backward stay valid.
func (p *Plan) Close() {
	if p.closed {
		return
	}
	p.closed = true
	p.eng.Close()
}
