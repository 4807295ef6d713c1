// Public API of the offt library: reusable distributed 3-D FFT plans over
// the in-memory MPI engine (real data) or the simulated engine (virtual
// time), with the paper's tunable parameters re-exported so callers never
// import internal packages.
//
// The shape follows FFTW and the advanced-MPI FFT of Dalcin et al.: build
// a Plan once (all validation, 1-D planning, and buffer sizing happens
// there), execute it many times, Close it when done. The steady state
// performs no amortized heap allocations.
package offt

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"offt/internal/fft"
	"offt/internal/layout"
	"offt/internal/machine"
	"offt/internal/model"
	"offt/internal/mpi"
	"offt/internal/mpi/fault"
	"offt/internal/mpi/mem"
	"offt/internal/mpi/transport"
	"offt/internal/pencil"
	"offt/internal/pfft"
	"offt/internal/telemetry"
	"offt/internal/tuner"
)

// Re-exported parameter and result types. These are aliases: values flow
// freely between the public API and any internal helper a power user
// already holds.
type (
	// Params are the ten tunable parameters of Table 1 of the paper.
	Params = pfft.Params
	// THParams are the three parameters of the TH comparison model.
	THParams = pfft.THParams
	// Breakdown is the per-step time breakdown of one transform.
	Breakdown = pfft.Breakdown
	// Variant selects the algorithm (Baseline, NEW, NEW0, TH, TH0).
	Variant = pfft.Variant
	// StepEvent is one timeline entry of a traced execution.
	StepEvent = pfft.StepEvent
	// TuneOutcome reports an auto-tuning run (search result + times).
	TuneOutcome = tuner.TuneOutcome
	// Telemetry is a metrics registry: counters, gauges and latency
	// histograms fed by every instrumented layer, exportable as JSON or
	// Prometheus text (see Plan.Metrics and WithTelemetry).
	Telemetry = telemetry.Registry
	// FaultProfile names a canonical deterministic fault mix for
	// WithFaults (see the FaultNone … FaultMixed constants).
	FaultProfile = fault.Profile
	// FaultPlan is a fully explicit deterministic fault schedule for
	// WithFaultPlan; the named profiles are the common presets.
	FaultPlan = fault.Plan
	// CommAlg selects the all-to-all exchange schedule — the 11th tuned
	// parameter (see the CommPairwise … CommWindowed constants).
	CommAlg = mpi.CommAlg
)

// All-to-all exchange schedules accepted by WithComm and Params.Comm.
const (
	// CommPairwise is the round-robin pairwise exchange: p−1 rounds, one
	// peer per round. The zero value and historical default.
	CommPairwise = mpi.CommPairwise
	// CommBruck is the log-p Bruck algorithm: ⌈log₂ p⌉ rounds of combined
	// packets — fewer, larger messages, favored at large p with small
	// per-destination tiles.
	CommBruck = mpi.CommBruck
	// CommHier is the node-aware hierarchical exchange: intra-node gather,
	// leader-to-leader exchange, intra-node scatter.
	CommHier = mpi.CommHier
	// CommWindowed is pairwise with a cap on concurrently in-flight peer
	// exchanges (injection throttling).
	CommWindowed = mpi.CommWindowed
)

// CommAlgs lists every exchange schedule in display order.
func CommAlgs() []CommAlg { return mpi.CommAlgs() }

// ParseComm resolves an exchange schedule from its wire/CLI name
// ("pairwise", "bruck", "hier", "windowed"; the empty string means
// pairwise). Unknown names surface as a *ConfigError.
func ParseComm(s string) (CommAlg, error) {
	a, err := mpi.ParseCommAlg(s)
	if err != nil {
		return 0, &ConfigError{Field: "comm", Value: s, Reason: "want pairwise, bruck, hier, or windowed", cause: err}
	}
	return a, nil
}

// Canonical fault profiles accepted by WithFaults, in rough order of
// escalation. All injection is deterministic in (profile, seed): a run
// replays identically regardless of goroutine scheduling.
const (
	FaultNone    = fault.ProfileNone    // inject nothing
	FaultDrop    = fault.ProfileDrop    // ~2% message loss + delivery jitter
	FaultCorrupt = fault.ProfileCorrupt // bit flips caught by checksum, light drops/dups
	FaultStall   = fault.ProfileStall   // one rank's NIC offline for a window, then degraded
	FaultMixed   = fault.ProfileMixed   // drops + corruption + duplication + one stall
)

// ParseFaultProfile validates a fault-profile name ("none", "drop",
// "corrupt", "stall", "mixed").
func ParseFaultProfile(s string) (FaultProfile, error) { return fault.ParseProfile(s) }

// ErrWorldFailed reports that a Mem plan's world of rank goroutines has
// failed: the transport's deadlock watchdog proved the world stuck, a
// Wait or Barrier exceeded the hard watchdog limit (WithWatchdog), a
// rank body panicked, or Plan.Fail was called. Every such failure out of
// Forward/Backward is a *WorldError wrapping this sentinel, so callers
// branch with errors.Is and inspect the detail via errors.As. A failed
// world does not heal: the plan must be Closed and rebuilt (the serve
// layer's quarantine-and-rebuild machinery does exactly that).
var ErrWorldFailed = errors.New("offt: plan world failed")

// WorldError is the typed, inspectable failure of a Mem plan's world. It
// wraps ErrWorldFailed (errors.Is) and the engine-level cause — e.g. a
// *transport.DeadlineError naming the collectives and source ranks still
// missing — via Unwrap (errors.As).
type WorldError struct {
	// Rank is the first rank observed failing (the world-wide failure
	// usually surfaces on every rank; one is reported).
	Rank int
	// Cause is the engine-level diagnostic: watchdog deadlock report,
	// hard hang-timeout deadline error, or the rank's panic value.
	Cause error
	// Downgrades counts the overlapped→blocking fallbacks the failing
	// execution took before the world died (0 when it died outright).
	Downgrades int64
}

func (e *WorldError) Error() string {
	return fmt.Sprintf("offt: plan world failed (rank %d): %v", e.Rank, e.Cause)
}

// Unwrap exposes the engine-level cause to errors.As chains.
func (e *WorldError) Unwrap() error { return e.Cause }

// Is matches ErrWorldFailed so callers need no type assertion to detect
// world death.
func (e *WorldError) Is(target error) bool { return target == ErrWorldFailed }

// NewTelemetry creates an empty metrics registry to attach to plans via
// WithTelemetry. A nil *Telemetry is the disabled registry: attaching it
// is valid and keeps every instrumented path at its no-op cost.
func NewTelemetry() *Telemetry { return telemetry.NewRegistry() }

// Algorithm variants, in the paper's naming.
const (
	Baseline = pfft.Baseline // FFTW-style blocking transform
	NEW      = pfft.NEW      // the paper's overlapped design
	NEW0     = pfft.NEW0     // NEW with overlap disabled (ablation)
	TH       = pfft.TH       // Hoefler-style comparison model
	TH0      = pfft.TH0      // TH with overlap disabled
)

// RenderTimeline pretty-prints a traced execution's step events.
func RenderTimeline(w io.Writer, events []StepEvent, cols int) {
	pfft.RenderTimeline(w, events, cols)
}

// ErrBadShape reports an infeasible transform geometry: non-positive
// dimensions, a non-positive rank count, or more ranks than the slab
// decomposition can feed. Every shape error out of NewPlan (and the
// offt-serve request API) wraps it, so callers can branch with errors.Is
// instead of matching engine-internal wording.
var ErrBadShape = errors.New("offt: bad transform shape")

// ValidateShape checks a grid/rank geometry for the slab decomposition
// before any planning work. It is the shared front door used by NewPlan,
// the service layer, and the examples; the returned error is a
// *ConfigError wrapping both ErrBadShape and ErrBadConfig and states the
// violated constraint in user terms.
func ValidateShape(nx, ny, nz, ranks int) error {
	switch {
	case nx < 1 || ny < 1 || nz < 1:
		return shapeError("grid", "", fmt.Sprintf("grid %d×%d×%d has a non-positive dimension", nx, ny, nz))
	case ranks < 1:
		return shapeError("ranks", "", fmt.Sprintf("rank count %d must be at least 1", ranks))
	case nx < ranks || ny < ranks:
		return shapeError("ranks", "", fmt.Sprintf("%d ranks need Nx and Ny ≥ ranks for the 1-D slab decomposition (got %d×%d×%d)",
			ranks, nx, ny, nz))
	}
	return nil
}

// ParseVariant resolves an algorithm variant from its name ("new", "th0",
// "baseline", or the display forms "NEW-0", "FFTW", ...).
func ParseVariant(name string) (Variant, error) { return pfft.ParseVariant(name) }

// DefaultParams returns the paper's §4.4 default point for an Nx×Ny×Nz
// grid over the given rank count.
func DefaultParams(nx, ny, nz, ranks int) (Params, error) {
	if err := ValidateShape(nx, ny, nz, ranks); err != nil {
		return Params{}, err
	}
	g, err := layout.NewGrid(nx, ny, nz, ranks, 0)
	if err != nil {
		return Params{}, err
	}
	return pfft.DefaultParams(g), nil
}

// DecodeParams converts a tuner configuration vector (as found in
// TuneOutcome.Search.History) back into Params.
func DecodeParams(cfg []int) Params { return tuner.DecodeParams(cfg) }

// TuneNEW auto-tunes the NEW variant on a named machine model
// ("umd-cluster", "hopper", or "laptop") with the paper's Nelder–Mead
// search under the given evaluation budget.
func TuneNEW(machineName string, ranks, n, budget int) (Params, TuneOutcome, error) {
	m, err := machine.ByName(machineName)
	if err != nil {
		return Params{}, TuneOutcome{}, err
	}
	return tuner.TuneNEW(m, ranks, n, budget)
}

// RandomSearchNEW runs the random-search baseline the paper compares the
// tuner against, with the same evaluation budget semantics as TuneNEW.
func RandomSearchNEW(machineName string, ranks, n, samples int, seed int64) (TuneOutcome, error) {
	m, err := machine.ByName(machineName)
	if err != nil {
		return TuneOutcome{}, err
	}
	return tuner.RandomNEW(m, ranks, n, samples, seed)
}

// SearchSpaceSize reports the tuner's search-space size for a geometry:
// the number of configurations and of tunable dimensions.
func SearchSpaceSize(nx, ny, nz, ranks int) (configs int64, dims int, err error) {
	g, err := layout.NewGrid(nx, ny, nz, ranks, 0)
	if err != nil {
		return 0, 0, err
	}
	space := tuner.FFTSpace(g)
	return space.Size(), len(space.Dims), nil
}

// EngineKind selects how a Plan executes.
type EngineKind int

const (
	// Mem runs ranks as goroutines exchanging real complex128 data
	// through the in-memory MPI engine; Forward/Backward transform data.
	Mem EngineKind = iota
	// Sim charges the same algorithm in deterministic virtual time on a
	// machine model; Forward(nil) simulates one transform.
	Sim
)

// Option configures NewPlan.
type Option func(*config)

type config struct {
	nx, ny, nz  int
	ranks       int
	decomp      Decomp
	variant     Variant
	params      *Params
	comm        *CommAlg
	engine      EngineKind
	machineName string
	workers     int
	reg         *Telemetry
	trace       bool
	storePath   string
	store       *TunedStore

	faultProfile FaultProfile
	faultSeed    int64
	faultPlan    *FaultPlan
	watchdog     time.Duration
	watchdogSet  bool
}

// WithGrid sets the transform dimensions (required).
func WithGrid(nx, ny, nz int) Option {
	return func(c *config) { c.nx, c.ny, c.nz = nx, ny, nz }
}

// WithRanks sets the number of ranks (default 1).
func WithRanks(p int) Option { return func(c *config) { c.ranks = p } }

// WithVariant selects the algorithm variant (default NEW).
func WithVariant(v Variant) Option { return func(c *config) { c.variant = v } }

// WithParams supplies a tuned parameter set; the default is the paper's
// §4.4 default point for the geometry.
func WithParams(prm Params) Option {
	return func(c *config) { p := prm; c.params = &p }
}

// WithComm pins the all-to-all exchange schedule, overriding whatever the
// parameter resolution (explicit WithParams, tuned store, or default)
// produced. Unpinned plans keep the resolved Params.Comm — pairwise
// unless a tuned-store entry recorded a different winner. A pinned
// schedule also qualifies tuned-store lookups, so entries tuned under
// `offt-tune -comm` resolve distinctly from the unpinned search.
func WithComm(a CommAlg) Option {
	return func(c *config) { v := a; c.comm = &v }
}

// WithEngine selects the execution engine (default Mem).
func WithEngine(k EngineKind) Option { return func(c *config) { c.engine = k } }

// WithMachine names the machine model for the Sim engine: "umd-cluster",
// "hopper", or "laptop" (the default).
func WithMachine(name string) Option {
	return func(c *config) { c.machineName = name }
}

// WithWorkers fans each rank's intra-rank kernels (FFTz, FFTy, Pack,
// Unpack, FFTx) across n goroutines. The default 1 keeps the serial,
// allocation-free path. Mem engine only.
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithTelemetry attaches a metrics registry: per-step latency histograms,
// the overlap-efficiency gauge and downgrade counter ("pfft.*"), and the
// transport recovery counters ("mem.transport.*") feed it during
// executions. Snapshot with Plan.Metrics or the registry's own exporters.
func WithTelemetry(t *Telemetry) Option { return func(c *config) { c.reg = t } }

// WithTunedStore consults a tuned-params store (written by
// `offt-tune -store`) during plan construction: when no explicit
// WithParams is given, the entry for (machine, grid, ranks, variant) —
// machine being the WithMachine name, "laptop" by default — warm-starts
// the plan instead of the §4.4 default point. A missing file or a missing
// entry silently falls back to DefaultParams; a malformed file is a
// construction error.
func WithTunedStore(path string) Option {
	return func(c *config) { c.storePath = path }
}

// WithTrace records a per-rank StepEvent timeline of each execution,
// readable via TraceEvents. Tracing wraps every kernel and Wait/Test call
// with clock reads — use it for timeline capture, not steady-state
// benchmarking. Mem engine only.
func WithTrace() Option { return func(c *config) { c.trace = true } }

// WithFaults attaches the chaos fabric to a Mem plan: the named profile,
// seeded deterministically, injects message drops, corruption,
// duplication, delivery jitter and NIC stalls into the plan's world. The
// self-healing transport (checksums, dedup, retransmit with capped
// backoff) recovers transient faults transparently; the overlapped
// pipeline downgrades to its blocking path under persistent pressure
// (counted in Breakdown.Downgrades and Plan.Downgrades); and a world the
// watchdog declares dead surfaces as ErrWorldFailed instead of hanging.
// A soft 15ms wait deadline is armed alongside so downgrades trigger —
// the same arming offt-run -chaos uses. FaultNone is a no-op. A slab Sim
// plan hands the schedule to its virtual-time fabric instead, which
// models the NIC stalls and slow links (payload faults do not apply); a
// pencil Sim plan ignores it.
func WithFaults(profile FaultProfile, seed int64) Option {
	return func(c *config) {
		c.faultProfile = profile
		c.faultSeed = seed
	}
}

// WithFaultPlan attaches a fully explicit fault schedule instead of a
// named profile (chaos tooling: precise stall windows, forced drops,
// per-link degradation). Overrides WithFaults when both are given, and
// reaches the same engines.
func WithFaultPlan(plan *FaultPlan) Option {
	return func(c *config) { c.faultPlan = plan }
}

// faults is the fault schedule the options ask for: WithFaultPlan's, else
// the WithFaults profile seeded for the rank count, nil when it injects
// nothing.
func (c *config) faults() (*FaultPlan, error) {
	fp := c.faultPlan
	if fp == nil && c.faultProfile != "" && c.faultProfile != FaultNone {
		var err error
		if fp, err = fault.NewPlan(c.faultSeed, c.faultProfile, c.ranks); err != nil {
			return nil, err
		}
	}
	if !fp.Active() {
		return nil, nil
	}
	return fp, nil
}

// WithWatchdog sets the Mem world's hang watchdog: every Wait/Barrier
// exceeding d — and any world provably deadlocked for d — fails the
// world with a diagnostic ErrWorldFailed instead of hanging the caller.
// d = 0 disables the watchdog entirely (debugger sessions: no timer ever
// kills a world you are single-stepping). Without this option the
// deadlock watchdog runs with a conservative 20s default and individual
// calls have no hard limit.
func WithWatchdog(d time.Duration) Option {
	return func(c *config) {
		c.watchdog = d
		c.watchdogSet = true
	}
}

// Plan is a create-once / execute-many distributed 3-D FFT. A Mem plan
// keeps one long-lived world of rank goroutines, each holding a reusable
// per-rank pfft.Plan with pre-sized communication slots and scratch, fed
// through job channels — so repeated Forward/Backward calls allocate
// nothing beyond the first execution. Every rank is handed the caller's
// input and result arrays and converts its own piece of each: the input is
// only read, where it lies, and the result written where the caller wants.
//
// Plans are safe for concurrent use: executions are serialized on an
// internal mutex (one transform at a time per plan — concurrent callers
// queue), and Close is idempotent and drains any in-flight transform
// before shutting the world down. Note that Forward/Backward return a
// plan-owned result slice that the *next* execution overwrites;
// concurrent callers should use ForwardInto/BackwardInto, whose result
// lands in the caller's own array before the execution lock is released.
type Plan struct {
	mu     sync.Mutex // serializes executions, accessors, and Close
	cfg    config
	desc   PlanDescription
	pgrids []pencil.Grid2D // pencil geometry (nil for slab plans, whose ranks build their own)

	// Mem engine state.
	world   *mem.World
	jobs    []chan job
	runDone chan error
	wg      sync.WaitGroup // joins the ranks of the execution in flight
	bds     []Breakdown
	errs    []error
	traces  [][]StepEvent // per-rank timelines of the last execution (WithTrace)
	fullFwd []complex128  // reusable gathered spectrum (first copying Forward)
	fullBwd []complex128  // reusable gathered backward result (first copying Backward)

	// What the last execution's ranks spent taking their pieces out of the
	// caller's input and putting them into its result, summed over ranks.
	scatterNs, gatherNs atomic.Int64

	// spanScratch is the reusable staging slice for run's trace: the
	// span batch is assembled here (under the execution lock) and copied
	// into the request's TraceContext in one AddBatch, so per-request
	// span emission costs one lock acquisition and zero transient
	// allocations after the first traced execution.
	spanScratch []telemetry.TraceSpan

	// Sim engine state.
	mach      machine.Machine
	simFaults *FaultPlan // degrades a slab plan's fabric in virtual time (nil: none)
	lastSim   model.Result
	simMet    *pfft.BreakdownObserver

	// Health state, atomics so WorldErr/Downgrades never block behind a
	// hung execution holding mu (the serve layer's health endpoints read
	// them while transforms are in flight).
	worldErr   atomic.Pointer[WorldError]
	downgrades atomic.Int64

	last   Breakdown
	closed bool
}

type jobOp int

const (
	opForward jobOp = iota
	opBackward
)

// job is one execution as a rank sees it: the direction and the caller's
// full arrays, of which the rank reads and writes its own piece.
type job struct {
	op       jobOp
	dst, src []complex128
}

// NewPlan builds a plan from functional options. All validation, variant
// parameter expansion, 1-D FFT planning, and buffer pre-sizing happens
// here; Forward/Backward only execute. Every rejected option set is a
// *ConfigError (errors.Is ErrBadConfig; geometric ones also ErrBadShape).
func NewPlan(opts ...Option) (*Plan, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	desc, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	prm := desc.Params
	p := &Plan{cfg: cfg, desc: desc}
	if desc.Decomp == Pencil {
		p.pgrids = make([]pencil.Grid2D, cfg.ranks)
		for r := 0; r < cfg.ranks; r++ {
			g, err := pencil.NewGrid2D(cfg.nx, cfg.ny, cfg.nz, desc.ProcRows, desc.ProcCols(), r)
			if err != nil {
				return nil, err
			}
			p.pgrids[r] = g
		}
	}

	switch cfg.engine {
	case Sim:
		m, err := machine.ByName(cfg.machineName)
		if err != nil {
			return nil, err
		}
		p.mach = m
		if p.simFaults, err = cfg.faults(); err != nil {
			return nil, err
		}
		p.cfg.params = &prm
		p.simMet = pfft.NewBreakdownObserver(cfg.reg, "pfft")
		return p, nil
	default:
		return p, p.startWorld(prm)
	}
}

// Describe returns the plan's canonical description: resolved geometry,
// decomposition, effective parameters and their provenance. It is the
// single source the serve layer keys its registry on and renders over
// /v1/plans.
func (p *Plan) Describe() PlanDescription { return p.desc }

// rankPlan is what a rank goroutine executes: the slab pfft.Plan or the
// pencil.Plan, both reusable create-once/run-many per-rank plans with the
// same execution surface — a transform between the full arrays src and dst,
// and the time the rank spent converting its piece of each.
type rankPlan interface {
	ForwardFull(dst, src []complex128) (b Breakdown, scatterNs, gatherNs int64, err error)
	BackwardFull(dst, src []complex128) (b Breakdown, scatterNs, gatherNs int64, err error)
	Trace() []StepEvent
	Close()
}

// startWorld launches the long-lived rank goroutines of a Mem plan. Each
// rank builds its per-rank plan (slab or pencil) once, reports readiness,
// then serves jobs until Close.
func (p *Plan) startWorld(prm Params) error {
	n := p.cfg.ranks
	p.jobs = make([]chan job, n)
	for r := range p.jobs {
		p.jobs[r] = make(chan job)
	}
	p.bds = make([]Breakdown, n)
	p.errs = make([]error, n)
	p.cfg.params = &prm

	var popts []pfft.PlanOpt
	if p.cfg.workers > 1 {
		popts = append(popts, pfft.WithWorkers(p.cfg.workers))
	}
	if p.cfg.reg != nil {
		popts = append(popts, pfft.WithTelemetry(p.cfg.reg))
	}
	if p.cfg.trace {
		// The pfft path takes the option; the pencil path enables its
		// recorder after construction (see below).
		popts = append(popts, pfft.WithTrace())
		p.traces = make([][]StepEvent, n)
	}

	fp, err := p.cfg.faults()
	if err != nil {
		return err
	}
	var wopts []transport.Option
	if fp != nil {
		// Soft wait deadline so the overlapped pipeline downgrades under
		// sustained faults instead of riding every retransmit.
		wopts = append(wopts, transport.WithFaults(fp), transport.WithDeadline(15*time.Millisecond))
	}
	if p.cfg.watchdogSet {
		wopts = append(wopts, transport.WithHangTimeout(p.cfg.watchdog))
	}
	p.world = mem.NewWorld(n, wopts...)
	p.world.RegisterTelemetry(p.cfg.reg)
	inits := make(chan error, n)
	p.runDone = make(chan error, 1)
	go func() {
		p.runDone <- p.world.Run(func(c *mem.Comm) {
			rank := c.Rank()
			var plan rankPlan
			var err error
			if p.desc.Decomp == Pencil {
				var pp *pencil.Plan
				pp, err = pencil.NewPlan(c, p.pgrids[rank], p.cfg.variant,
					pencil.FromParams(prm, p.pgrids[rank]), fft.Estimate)
				if err == nil && p.cfg.trace {
					pp.EnableTrace()
				}
				plan = pp
			} else {
				var g layout.Grid
				if g, err = layout.NewGrid(p.cfg.nx, p.cfg.ny, p.cfg.nz, n, rank); err == nil {
					plan, err = pfft.NewPlan(c, g, p.cfg.variant, prm, fft.Estimate, popts...)
				}
			}
			inits <- err
			if err != nil {
				return
			}
			defer plan.Close()
			for jb := range p.jobs[rank] {
				p.runJob(plan, rank, jb)
			}
		})
	}()
	var initErr error
	for i := 0; i < n; i++ {
		if err := <-inits; err != nil && initErr == nil {
			initErr = err
		}
	}
	if initErr != nil {
		p.shutdownWorld()
		return initErr
	}
	return nil
}

// runJob executes one transform on a rank goroutine. The recover keeps a
// rank failure (including a transport watchdog abort) from stranding
// dispatch's WaitGroup: the error is recorded and the rank keeps serving.
// Any recovered panic is classified as a world failure — either the
// transport itself declared the world dead (transport.WorldFailure) or the
// rank's state is unknowable mid-collective — so dispatch surfaces a
// typed *WorldError instead of a wedged or half-poisoned plan.
//
// jb.dst may be jb.src. Every rank's last read of src happens before any
// rank's first write of dst, by a different argument per path:
//   - Slab forward: a rank reads src only in FFTz, which transforms its
//     x-slab out of place before the rank posts tile 0. It first writes dst
//     in its first FFTx, after its first Wait, and that Wait needs every
//     peer's tile-0 block, which each peer posts only after its FFTz.
//   - Slab backward: a rank reads src in each tile's FFTx⁻¹, before it
//     posts that tile, so its last read precedes its last post. It writes
//     dst only in FFTz⁻¹, after its last Wait, which needs every peer's
//     last tile.
//   - Pencil: a rank reads src only in its first kernel (the copy of its
//     pencil into plan-owned memory) and writes dst only after its last
//     Wait. What it holds then was computed, through the members of its
//     second exchange group, from every rank's piece of src, and no rank
//     posts a block before its first kernel is done.
//
// A transform added here whose ranks write dst before a Wait that follows
// every peer's last read of src must stage its input.
func (p *Plan) runJob(plan rankPlan, rank int, jb job) {
	defer p.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			var we *WorldError
			if wf, ok := r.(transport.WorldFailure); ok {
				we = &WorldError{Rank: rank, Cause: wf.Err}
			} else {
				we = &WorldError{Rank: rank, Cause: fmt.Errorf("rank body panicked: %v", r)}
			}
			p.errs[rank] = we
			// Fail the world right away — sibling ranks blocked on this
			// rank's missing blocks must wake now, not after a watchdog
			// window; the failure also stops transport retransmit churn.
			p.world.Fail(we.Cause)
		}
	}()
	var scatterNs, gatherNs int64
	if jb.op == opBackward {
		p.bds[rank], scatterNs, gatherNs, p.errs[rank] = plan.BackwardFull(jb.dst, jb.src)
	} else {
		p.bds[rank], scatterNs, gatherNs, p.errs[rank] = plan.ForwardFull(jb.dst, jb.src)
	}
	p.scatterNs.Add(scatterNs)
	p.gatherNs.Add(gatherNs)
	if p.traces != nil {
		p.traces[rank] = append(p.traces[rank][:0], plan.Trace()...)
	}
}

// dispatch runs one op from src into dst on every rank and joins. A world
// failure on any rank is folded into one sticky *WorldError: later
// executions fail fast with it instead of re-dispatching onto a dead world.
func (p *Plan) dispatch(op jobOp, dst, src []complex128) error {
	p.scatterNs.Store(0)
	p.gatherNs.Store(0)
	p.wg.Add(p.cfg.ranks)
	for r := 0; r < p.cfg.ranks; r++ {
		// Clear the previous execution's slots: a rank that panics mid-
		// transform never reaches its assignments, and stale breakdowns
		// would skew the downgrade accounting below.
		p.bds[r] = Breakdown{}
		p.errs[r] = nil
		p.jobs[r] <- job{op: op, dst: dst, src: src}
	}
	p.wg.Wait()
	var dg int64
	for _, b := range p.bds {
		dg += b.Downgrades
	}
	p.downgrades.Add(dg)
	for r, err := range p.errs {
		if err == nil {
			continue
		}
		var we *WorldError
		if errors.As(err, &we) {
			failure := &WorldError{Rank: we.Rank, Cause: we.Cause, Downgrades: dg}
			p.worldErr.CompareAndSwap(nil, failure)
			return p.worldErr.Load()
		}
		return fmt.Errorf("offt: rank %d: %w", r, err)
	}
	p.last = Breakdown{}
	for _, b := range p.bds {
		p.last.Add(b)
	}
	p.last.Scale(int64(p.cfg.ranks))
	return nil
}

// Forward executes one forward 3-D FFT.
//
// Mem engine: data is the full Nx·Ny·Nz array in x-y-z layout (read, not
// modified); the returned spectrum, same shape and layout, is owned by the
// plan and valid until the next Forward call. Concurrent callers should
// use ForwardInto instead, which writes the result into their own array
// under the execution lock.
//
// Sim engine: data must be nil; the transform is charged in virtual time
// (see Breakdown, PerRank, VirtualTimes) and the result slice is nil.
func (p *Plan) Forward(data []complex128) ([]complex128, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.forwardLockedInto(nil, data, nil)
}

// ForwardInto executes one forward 3-D FFT and assembles the spectrum into
// dst (length Nx·Ny·Nz) before releasing the execution lock, so the
// result cannot be overwritten by a concurrent caller's next transform.
// The ranks write their pieces of the spectrum directly into dst — no
// intermediate plan-owned copy — and only read data, so dst may be data
// (an in-place transform); otherwise data is left untouched. The same
// holds for BackwardInto and the two Ctx forms. Mem engine only.
func (p *Plan) ForwardInto(dst, data []complex128) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cfg.engine != Mem {
		return fmt.Errorf("offt: ForwardInto requires the Mem engine")
	}
	if len(dst) != p.cfg.nx*p.cfg.ny*p.cfg.nz {
		return fmt.Errorf("offt: dst length %d, want %d", len(dst), p.cfg.nx*p.cfg.ny*p.cfg.nz)
	}
	_, err := p.forwardLockedInto(dst, data, nil)
	return err
}

// ExecStats reports the stage structure of one context-aware execution:
// the ranks' mean time taking their pieces out of the caller's input
// (ScatterNs) and writing them into its result (GatherNs), the rest of the
// dispatch's wall time (DispatchNs), the rank-averaged per-step breakdown,
// and the downgrades this execution (not the plan lifetime) took. Only
// pencil plans report ScatterNs and GatherNs: slab ranks read and write the
// caller's arrays inside their first and last 1-D FFTs (booked under FFTz
// and FFTx), so both are 0 there. The serve layer forwards these into the
// flight recorder and per-request responses.
type ExecStats struct {
	TotalNs    int64
	ScatterNs  int64
	DispatchNs int64
	GatherNs   int64
	Breakdown  Breakdown
	Downgrades int64
}

// OverlapEfficiency returns the execution's communication-overlap
// efficiency per §5.2.1 (see Breakdown.OverlapEfficiency).
func (s ExecStats) OverlapEfficiency() float64 { return s.Breakdown.OverlapEfficiency() }

// ForwardIntoCtx is ForwardInto plus request-scoped observability: the
// execution checks ctx for cancellation before dispatching (an execution
// already in flight is never aborted — ranks run to completion), returns
// per-stage ExecStats, and, when ctx carries a telemetry.TraceContext,
// appends the execution's span tree to it — a dispatch control span, under
// it the rank-averaged scatter and gather, per-phase spans synthesized
// from the breakdown, and (on WithTrace plans) per-rank step spans with
// tile attribution. Mem engine only.
func (p *Plan) ForwardIntoCtx(ctx context.Context, dst, data []complex128) (ExecStats, error) {
	return p.execIntoCtx(ctx, opForward, dst, data)
}

// BackwardIntoCtx is BackwardInto with the same context and observability
// semantics as ForwardIntoCtx. Mem engine only.
func (p *Plan) BackwardIntoCtx(ctx context.Context, dst, data []complex128) (ExecStats, error) {
	return p.execIntoCtx(ctx, opBackward, dst, data)
}

func (p *Plan) execIntoCtx(ctx context.Context, op jobOp, dst, data []complex128) (ExecStats, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cfg.engine != Mem {
		return ExecStats{}, fmt.Errorf("offt: context execution requires the Mem engine")
	}
	if len(dst) != p.cfg.nx*p.cfg.ny*p.cfg.nz {
		return ExecStats{}, fmt.Errorf("offt: dst length %d, want %d", len(dst), p.cfg.nx*p.cfg.ny*p.cfg.nz)
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return ExecStats{}, err
		}
	}
	obs := &execObs{tc: telemetry.TraceFrom(ctx)}
	start := time.Now()
	execID := obs.tc.Begin("exec")
	before := p.downgrades.Load()
	var err error
	if op == opForward {
		_, err = p.forwardLockedInto(dst, data, obs)
	} else {
		_, err = p.backwardLockedInto(dst, data, obs)
	}
	obs.tc.End(execID)
	obs.TotalNs = time.Since(start).Nanoseconds()
	obs.Downgrades = p.downgrades.Load() - before
	if err == nil {
		obs.Breakdown = p.last
	}
	return obs.ExecStats, err
}

// execObs collects one execution's ExecStats and mirrors its dispatch into
// the request's trace. A nil observer is the untimed fast path.
type execObs struct {
	tc *telemetry.TraceContext
	ExecStats
}

// run dispatches op from src into dst. An observer gets the dispatch's wall
// time split three ways — the ranks' mean scatter and gather time and the
// rest — and, after a successful dispatch, its interior in the trace:
// scatter at the start and gather at the end of the dispatch span (each
// only when non-zero, so on pencil plans alone), between
// them per-phase spans synthesized from the rank-averaged breakdown
// (accurate durations, sequential placement), and, for WithTrace plans,
// every rank's step events rebased from the engine's world-epoch clock
// (the earliest event aligns with the dispatch start).
func (p *Plan) run(op jobOp, dst, src []complex128, o *execObs) error {
	if o == nil {
		return p.dispatch(op, dst, src)
	}
	id := o.tc.Begin("dispatch")
	start := o.tc.Elapsed()
	t := time.Now()
	err := p.dispatch(op, dst, src)
	wall := time.Since(t).Nanoseconds()
	o.tc.End(id)
	ranks := int64(p.cfg.ranks)
	o.ScatterNs, o.GatherNs = p.scatterNs.Load()/ranks, p.gatherNs.Load()/ranks
	o.DispatchNs = wall - o.ScatterNs - o.GatherNs
	if err != nil || o.tc == nil {
		return err
	}
	control := func(name string, from, to int64) telemetry.TraceSpan {
		return telemetry.TraceSpan{Parent: id, Name: name, Start: from, End: to, Rank: -1, Tile: -1}
	}
	batch := p.spanScratch[:0]
	if o.ScatterNs > 0 {
		batch = append(batch, control("scatter", start, start+o.ScatterNs))
	}
	if o.GatherNs > 0 {
		batch = append(batch, control("gather", start+wall-o.GatherNs, start+wall))
	}
	cur := start + o.ScatterNs
	names := pfft.StepNames()
	for i, v := range p.last.Steps() {
		if v <= 0 {
			continue
		}
		batch = append(batch, telemetry.TraceSpan{
			Parent: id, Name: names[i], Kind: "phase",
			Start: cur, End: cur + v, Rank: -1, Tile: -1,
		})
		cur += v
	}
	if p.traces != nil {
		min := int64(math.MaxInt64)
		for _, evs := range p.traces {
			for _, e := range evs {
				if e.Start < min {
					min = e.Start
				}
			}
		}
		if min != math.MaxInt64 {
			for r, evs := range p.traces {
				for _, e := range evs {
					batch = append(batch, telemetry.TraceSpan{
						Parent: id, Name: e.Name, Kind: "step",
						Start: start + e.Start - min, End: start + e.End - min,
						Rank: r, Tile: e.Tile,
					})
				}
			}
		}
	}
	o.tc.AddBatch(batch)
	p.spanScratch = batch
	return nil
}

// forwardLockedInto runs the forward transform into dst when non-nil, else
// into the plan-owned fullFwd buffer. obs, when non-nil, times the
// execution and feeds the request trace.
func (p *Plan) forwardLockedInto(dst, data []complex128, obs *execObs) ([]complex128, error) {
	// World failure outranks the closed flag: quarantine teardown Closes a
	// failed plan while stragglers may still race in, and they must see
	// the typed *WorldError, not a generic closed-plan complaint.
	if err := p.worldCheck(); err != nil {
		return nil, err
	}
	if p.closed {
		return nil, fmt.Errorf("offt: Forward on closed plan")
	}
	if p.cfg.engine == Sim {
		if data != nil {
			return nil, fmt.Errorf("offt: Sim plans transform no data; call Forward(nil)")
		}
		if p.desc.Decomp == Pencil {
			return nil, p.simulatePencil()
		}
		res, err := model.Simulate(p.mach, p.cfg.ranks, p.cfg.nx, p.cfg.ny, p.cfg.nz,
			model.Spec{Variant: p.cfg.variant, Params: *p.cfg.params, Faults: p.simFaults})
		if err != nil {
			return nil, err
		}
		p.lastSim = res
		p.last = res.Avg
		p.simMet.Observe(res.Avg)
		p.simMet.ObserveComm(p.cfg.params.Comm, res.Avg)
		res.Net.Publish(p.cfg.reg)
		return nil, nil
	}
	return p.execMem(opForward, &p.fullFwd, dst, data, obs)
}

// execMem runs op on the Mem world from data into dst — when dst is nil,
// into *own, the plan-owned result buffer of that direction, allocated on
// first use — and returns the array the result is in.
func (p *Plan) execMem(op jobOp, own *[]complex128, dst, data []complex128, obs *execObs) ([]complex128, error) {
	n := p.cfg.nx * p.cfg.ny * p.cfg.nz
	if len(data) != n {
		return nil, fmt.Errorf("offt: data length %d, want %d", len(data), n)
	}
	if dst == nil {
		if *own == nil {
			*own = make([]complex128, n)
		}
		dst = *own
	}
	if err := p.run(op, dst, data, obs); err != nil {
		return nil, err
	}
	return dst, nil
}

// simulatePencil charges one pencil transform on the machine model: the
// blocking variants cost the two whole-extent exchanges, NEW the
// overlapped pipeline. The cost model reports a single completion time,
// mirrored into the Result shape the accessors expose.
func (p *Plan) simulatePencil() error {
	g := p.pgrids[0]
	var v int64
	var err error
	if p.cfg.variant == NEW {
		v, err = pencil.SimulateOverlappedGrid(p.mach, g.PR, g.PC, p.cfg.nx, p.cfg.ny, p.cfg.nz,
			pencil.FromParams(*p.cfg.params, g))
	} else {
		v, err = pencil.SimulateGrid(p.mach, g.PR, g.PC, p.cfg.nx, p.cfg.ny, p.cfg.nz)
	}
	if err != nil {
		return err
	}
	res := model.Result{MaxTotal: v, MaxTuned: v, Avg: Breakdown{Total: v}}
	p.lastSim = res
	p.last = res.Avg
	p.simMet.Observe(res.Avg)
	return nil
}

// Backward executes one inverse 3-D FFT on the Mem engine: data is a full
// spectrum in x-y-z layout (read, not modified), the returned array is
// owned by the plan and valid until the next Backward call (concurrent
// callers: see BackwardInto). Like the paper's pipeline the round trip is
// unnormalized: Forward then Backward multiplies by Nx·Ny·Nz.
func (p *Plan) Backward(data []complex128) ([]complex128, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.backwardLockedInto(nil, data, nil)
}

// BackwardInto executes one inverse 3-D FFT and assembles the result into
// dst (length Nx·Ny·Nz) before releasing the execution lock. Mem engine
// only.
func (p *Plan) BackwardInto(dst, data []complex128) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(dst) != p.cfg.nx*p.cfg.ny*p.cfg.nz {
		return fmt.Errorf("offt: dst length %d, want %d", len(dst), p.cfg.nx*p.cfg.ny*p.cfg.nz)
	}
	_, err := p.backwardLockedInto(dst, data, nil)
	return err
}

// backwardLockedInto runs the backward transform into dst when non-nil,
// else into the plan-owned fullBwd buffer. obs, when non-nil, times the
// execution and feeds the request trace.
func (p *Plan) backwardLockedInto(dst, data []complex128, obs *execObs) ([]complex128, error) {
	if err := p.worldCheck(); err != nil {
		return nil, err
	}
	if p.closed {
		return nil, fmt.Errorf("offt: Backward on closed plan")
	}
	if p.cfg.engine == Sim {
		return nil, fmt.Errorf("offt: Sim plans do not support Backward")
	}
	if p.cfg.variant == TH || p.cfg.variant == TH0 {
		return nil, fmt.Errorf("offt: backward transform does not support the %v comparison model", p.cfg.variant)
	}
	return p.execMem(opBackward, &p.fullBwd, dst, data, obs)
}

// worldCheck fails an execution fast when the plan's world is already
// known dead — either a prior execution surfaced a *WorldError, or the
// world was failed externally (watchdog, Plan.Fail) while idle.
func (p *Plan) worldCheck() error {
	if we := p.worldErr.Load(); we != nil {
		return we
	}
	if p.cfg.engine == Mem && p.world != nil {
		if cause := p.world.Failed(); cause != nil {
			we := &WorldError{Rank: -1, Cause: cause}
			p.worldErr.CompareAndSwap(nil, we)
			return p.worldErr.Load()
		}
	}
	return nil
}

// Fail administratively kills a Mem plan's world with the given cause:
// any in-flight transform resolves promptly with a *WorldError (blocked
// ranks are woken, retransmit timers stop making the dead world churn)
// and later executions fail fast the same way. It takes no locks a hung
// transform could hold, so it is safe to call exactly when the plan is
// wedged — the serve layer's request watchdog and its KillPlan chaos hook
// are the intended callers. No-op on Sim plans and nil causes a generic
// diagnostic.
func (p *Plan) Fail(cause error) {
	if p.cfg.engine != Mem || p.world == nil {
		return
	}
	if cause == nil {
		cause = errors.New("offt: plan administratively failed")
	}
	p.world.Fail(cause)
}

// WorldErr reports the plan's world failure (nil while healthy) without
// blocking behind in-flight executions: a *WorldError once any execution
// has surfaced one, or the pending failure of a world killed while idle.
func (p *Plan) WorldErr() error {
	if we := p.worldErr.Load(); we != nil {
		return we
	}
	if p.cfg.engine == Mem && p.world != nil {
		if cause := p.world.Failed(); cause != nil {
			return &WorldError{Rank: -1, Cause: cause}
		}
	}
	return nil
}

// Downgrades returns the cumulative count of overlapped→blocking
// fallbacks across all of the plan's executions (world-wide, not
// per-rank-averaged). Non-zero means the transport misbehaved enough
// that some execution abandoned overlap; the transform results remain
// correct. Lock-free: safe to read while a transform is in flight.
func (p *Plan) Downgrades() int64 { return p.downgrades.Load() }

// Breakdown returns the per-step breakdown of the most recent execution,
// averaged over ranks.
func (p *Plan) Breakdown() Breakdown {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.last
}

// PerRank returns each rank's breakdown from the most recent execution.
func (p *Plan) PerRank() []Breakdown {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cfg.engine == Sim {
		return append([]Breakdown(nil), p.lastSim.PerRank...)
	}
	return append([]Breakdown(nil), p.bds...)
}

// VirtualTimes reports the most recent Sim execution's job completion
// time and its auto-tuner objective (total excluding FFTz and Transpose),
// both in virtual nanoseconds.
func (p *Plan) VirtualTimes() (total, tuned int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lastSim.MaxTotal, p.lastSim.MaxTuned
}

// Params returns the expanded parameter set the plan executes.
func (p *Plan) Params() Params { return *p.cfg.params }

// Metrics returns the plan's telemetry registry (nil without
// WithTelemetry). Snapshot it with its WriteJSON/WritePrometheus methods,
// or hand it to telemetry consumers directly.
func (p *Plan) Metrics() *Telemetry { return p.cfg.reg }

// TraceEvents returns a deep copy of the per-rank StepEvent timelines of
// the most recent execution (index = rank), or nil when the plan was built
// without WithTrace or has not executed yet.
func (p *Plan) TraceEvents() [][]StepEvent {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.traces == nil {
		return nil
	}
	out := make([][]StepEvent, len(p.traces))
	for r, evs := range p.traces {
		out[r] = append([]StepEvent(nil), evs...)
	}
	return out
}

// WriteChromeTrace renders the most recent traced execution as Chrome
// trace-event JSON (loadable at ui.perfetto.dev): one track per rank, flow
// arrows linking each tile's all-to-all post to its wait, instant markers
// for downgrades. Fails when the plan was built without WithTrace.
func (p *Plan) WriteChromeTrace(w io.Writer) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.traces == nil {
		return fmt.Errorf("offt: plan has no trace (build it with WithTrace)")
	}
	return pfft.TraceTimeline(p.traces).WriteChromeTrace(w)
}

// Close shuts down the plan's rank goroutines and releases buffers.
// Result slices handed out by Forward/Backward stay valid. Close is
// idempotent and safe to call concurrently with executions: it waits for
// any in-flight transform to drain, then stops the world; later
// Forward/Backward calls fail with a "closed plan" error.
func (p *Plan) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	if p.cfg.engine != Mem {
		return nil
	}
	return p.shutdownWorld()
}

func (p *Plan) shutdownWorld() error {
	for _, ch := range p.jobs {
		close(ch)
	}
	return <-p.runDone
}
