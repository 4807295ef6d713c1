// Plan configuration as a first-class value: every option set NewPlan
// accepts resolves — through one shared path — to a canonical
// PlanDescription (geometry, decomposition, variant, engine, effective
// parameters, and where those parameters came from). The description is
// comparable, so the serve layer uses it directly as its plan-cache key,
// and every rejected option surfaces as one typed *ConfigError instead of
// ad-hoc formatted errors.
package offt

import (
	"errors"
	"fmt"
	"strings"

	"offt/internal/layout"
	"offt/internal/machine"
	"offt/internal/pencil"
	"offt/internal/pfft"
	"offt/internal/tuned"
)

// Decomp selects the domain decomposition of a plan.
type Decomp int

const (
	// Slab is the paper's 1-D decomposition: whole x-slabs in, y-slabs
	// out, at most min(Nx, Ny) ranks. The zero value, so existing plans
	// that never mention a decomposition keep their exact behavior.
	Slab Decomp = iota
	// Pencil is the 2-D decomposition (the paper's §7 future work): a
	// Py×Pz process grid exchanging twice (row groups then column
	// groups), scaling past the slab rank cap to Nx·Ny ranks.
	Pencil
)

func (d Decomp) String() string {
	switch d {
	case Slab:
		return "slab"
	case Pencil:
		return "pencil"
	}
	return fmt.Sprintf("decomp(%d)", int(d))
}

// ParseDecomp resolves a decomposition from its wire/CLI name. The empty
// string means Slab, so omitted flags and absent JSON fields keep the
// backward-compatible default.
func ParseDecomp(s string) (Decomp, error) {
	switch strings.ToLower(s) {
	case "", "slab", "1d":
		return Slab, nil
	case "pencil", "2d":
		return Pencil, nil
	}
	return 0, &ConfigError{Field: "decomp", Value: s, Reason: "want slab (1d) or pencil (2d)"}
}

// WithDecomp selects the domain decomposition (default Slab). Pencil
// plans accept any rank count that factors into a feasible Py×Pz grid
// (auto-factored, or pinned via Params.Pr), support the Baseline, NEW and
// NEW0 variants on both engines, record WithTrace timelines like slab
// plans, and reject the slab-only machinery (TH/TH0, WithWorkers > 1)
// with a *ConfigError.
func WithDecomp(d Decomp) Option { return func(c *config) { c.decomp = d } }

// ErrBadConfig is the sentinel every plan-configuration error wraps: any
// option set NewPlan or DescribePlan rejects — unknown variant, infeasible
// parameters, unsupported combination — surfaces as a *ConfigError
// matching this via errors.Is, so callers (the serve layer's 400 mapping)
// need no string matching. Shape errors additionally wrap ErrBadShape.
var ErrBadConfig = errors.New("offt: invalid plan configuration")

// ConfigError is the typed rejection of a plan option set: which option
// was wrong, what value it held, and the violated constraint in user
// terms. It wraps ErrBadConfig always and ErrBadShape when the rejection
// is geometric (so existing errors.Is(err, ErrBadShape) callers keep
// working).
type ConfigError struct {
	// Field names the offending option: "grid", "ranks", "decomp",
	// "variant", "engine", "machine", "workers", "params", "trace".
	Field string
	// Value renders the offending value ("" when the option was omitted).
	Value string
	// Reason states the violated constraint.
	Reason string

	shape bool  // geometry rejection: also an ErrBadShape
	cause error // wrapped inner error (e.g. a pfft validation error)
}

func (e *ConfigError) Error() string {
	if e.shape {
		return "offt: bad transform shape: " + e.Reason
	}
	if e.Value != "" {
		return fmt.Sprintf("offt: invalid %s (%s): %s", e.Field, e.Value, e.Reason)
	}
	return fmt.Sprintf("offt: invalid %s: %s", e.Field, e.Reason)
}

// Is matches ErrBadConfig for every configuration error, and ErrBadShape
// for the geometric ones.
func (e *ConfigError) Is(target error) bool {
	return target == ErrBadConfig || (e.shape && target == ErrBadShape)
}

// Unwrap exposes the inner validation error, when one exists.
func (e *ConfigError) Unwrap() error { return e.cause }

// shapeError builds the geometric flavor of ConfigError.
func shapeError(field, value, reason string) *ConfigError {
	return &ConfigError{Field: field, Value: value, Reason: reason, shape: true}
}

// ParamSource records where a plan's effective parameters came from, so
// cache keys built from descriptions stay canonical: a request spelling
// out the default point and one omitting parameters resolve identically.
type ParamSource int

const (
	// ParamsDefault: the §4.4 default point for the geometry.
	ParamsDefault ParamSource = iota
	// ParamsTuned: a tuned-store entry (WithTunedStore warm start).
	ParamsTuned
	// ParamsExplicit: caller-supplied via WithParams, different from what
	// the default/tuned resolution would have produced.
	ParamsExplicit
)

func (s ParamSource) String() string {
	switch s {
	case ParamsDefault:
		return "default"
	case ParamsTuned:
		return "tuned"
	case ParamsExplicit:
		return "explicit"
	}
	return fmt.Sprintf("source(%d)", int(s))
}

func (k EngineKind) String() string {
	switch k {
	case Mem:
		return "mem"
	case Sim:
		return "sim"
	}
	return fmt.Sprintf("engine(%d)", int(k))
}

// PlanDescription is the canonical identity of a plan: everything that
// determines what a plan computes and how, fully resolved (parameters are
// the effective set, the pencil process grid is factored). It is
// comparable — the serve layer uses it directly as its cache map key —
// and stable: two option sets that build behaviorally identical plans
// resolve to equal descriptions.
type PlanDescription struct {
	Nx, Ny, Nz int
	Ranks      int
	// Decomp is the domain decomposition; ProcRows is the resolved Py of
	// a pencil plan's Py×Pz process grid (0 for slab).
	Decomp   Decomp
	ProcRows int
	Variant  Variant
	Engine   EngineKind
	Workers  int
	// Machine is the machine-model / tuned-store host label ("laptop"
	// by default; meaningful to Sim plans and store lookups).
	Machine string
	// Params is the resolved effective parameter set (canonical: Pr is 0
	// for slab, the factored row count for pencil).
	Params Params
	// Provenance records where Params came from.
	Provenance ParamSource
}

// ProcCols is the resolved Pz of a pencil plan's process grid (0 for
// slab).
func (d PlanDescription) ProcCols() int {
	if d.Decomp != Pencil || d.ProcRows == 0 {
		return 0
	}
	return d.Ranks / d.ProcRows
}

// String renders the description as a stable cache-key / log form. Slab
// descriptions render exactly as the pre-pencil serve keys did, so
// operator tooling matching on key strings keeps working.
func (d PlanDescription) String() string {
	s := fmt.Sprintf("%dx%dx%d/p=%d/%v/%v/w=%d", d.Nx, d.Ny, d.Nz, d.Ranks, d.Variant, d.Engine, d.Workers)
	if d.Decomp == Pencil {
		s += fmt.Sprintf("/pencil=%dx%d", d.ProcRows, d.ProcCols())
	}
	if d.Params.Comm != CommPairwise {
		s += "/comm=" + d.Params.Comm.String()
	}
	return s
}

// DescribePlan resolves an option set to its canonical PlanDescription
// without building the plan: full validation, decomposition factoring,
// and parameter resolution (explicit > tuned store > default) happen
// exactly as in NewPlan, so the serve layer computes cache keys — and
// callers preview effective parameters — for free. Every rejection is a
// *ConfigError wrapping ErrBadConfig.
func DescribePlan(opts ...Option) (PlanDescription, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return cfg.resolve()
}

// NewPlanFrom builds a plan from a resolved description, preserving its
// provenance — the serve layer's build path, so the plan a key describes
// is exactly the plan the registry caches. Extra options supply the
// non-identity machinery (telemetry, faults, watchdog, tuned store);
// identity options (grid, decomp, variant, engine, params, ...) are
// already pinned by the description and must not be overridden.
func NewPlanFrom(d PlanDescription, opts ...Option) (*Plan, error) {
	base := []Option{
		WithGrid(d.Nx, d.Ny, d.Nz),
		WithRanks(d.Ranks),
		WithDecomp(d.Decomp),
		WithVariant(d.Variant),
		WithEngine(d.Engine),
		WithMachine(d.Machine),
		WithWorkers(d.Workers),
		WithParams(d.Params),
	}
	p, err := NewPlan(append(base, opts...)...)
	if err != nil {
		return nil, err
	}
	p.desc.Provenance = d.Provenance
	return p, nil
}

func defaultConfig() config {
	return config{ranks: 1, variant: NEW, machineName: "laptop", workers: 1}
}

// resolve is the single validation and resolution path behind NewPlan and
// DescribePlan: it checks every option, factors the pencil process grid,
// resolves effective parameters with provenance, and canonicalizes the
// result so equal behavior yields equal descriptions.
func (cfg *config) resolve() (PlanDescription, error) {
	if cfg.nx == 0 && cfg.ny == 0 && cfg.nz == 0 {
		return PlanDescription{}, shapeError("grid", "", "grid dimensions are required (use WithGrid)")
	}
	switch cfg.decomp {
	case Slab, Pencil:
	default:
		return PlanDescription{}, &ConfigError{Field: "decomp", Value: fmt.Sprint(int(cfg.decomp)), Reason: "want Slab or Pencil"}
	}
	switch cfg.engine {
	case Mem, Sim:
	default:
		return PlanDescription{}, &ConfigError{Field: "engine", Value: fmt.Sprint(int(cfg.engine)), Reason: "want Mem or Sim"}
	}
	switch cfg.variant {
	case Baseline, NEW, NEW0, TH, TH0:
	default:
		return PlanDescription{}, &ConfigError{Field: "variant", Value: fmt.Sprint(int(cfg.variant)), Reason: "want Baseline, NEW, NEW0, TH, or TH0"}
	}
	if cfg.engine == Sim {
		if _, err := machine.ByName(cfg.machineName); err != nil {
			return PlanDescription{}, &ConfigError{Field: "machine", Value: cfg.machineName, Reason: "unknown machine model (want umd-cluster, hopper, or laptop)", cause: err}
		}
	}
	workers := cfg.workers
	if workers < 1 {
		workers = 1
	}

	desc := PlanDescription{
		Nx: cfg.nx, Ny: cfg.ny, Nz: cfg.nz,
		Ranks:   cfg.ranks,
		Decomp:  cfg.decomp,
		Variant: cfg.variant,
		Engine:  cfg.engine,
		Workers: workers,
		Machine: cfg.machineName,
	}

	switch cfg.decomp {
	case Slab:
		if err := ValidateShape(cfg.nx, cfg.ny, cfg.nz, cfg.ranks); err != nil {
			return PlanDescription{}, err
		}
		return cfg.resolveSlab(desc)
	default:
		return cfg.resolvePencil(desc)
	}
}

// resolveSlab finishes resolution for the 1-D decomposition: parameter
// lookup, variant expansion/validation, and Pr canonicalization to 0.
func (cfg *config) resolveSlab(desc PlanDescription) (PlanDescription, error) {
	g0, err := layout.NewGrid(cfg.nx, cfg.ny, cfg.nz, cfg.ranks, 0)
	if err != nil {
		return PlanDescription{}, shapeError("grid", "", err.Error())
	}
	store, err := cfg.loadStore()
	if err != nil {
		return PlanDescription{}, err
	}
	lookup := func() (Params, ParamSource) {
		key := cfg.commKey(tuned.NewKey(cfg.machineName, cfg.nx, cfg.ny, cfg.nz, cfg.ranks, cfg.variant))
		if tp, ok := store.Lookup(key); ok {
			return cfg.pinComm(tp), ParamsTuned
		}
		return cfg.pinComm(pfft.DefaultParams(g0)), ParamsDefault
	}
	prm, src := lookup()
	if cfg.params != nil {
		prm, src = cfg.pinComm(*cfg.params), ParamsExplicit
	}
	if _, err := pfft.ExpandParams(cfg.variant, g0, prm); err != nil {
		return PlanDescription{}, &ConfigError{Field: "params", Value: prm.String(), Reason: "infeasible for the geometry", cause: err}
	}
	// Canonicalize: the slab path ignores the pencil process-grid row
	// count, so explicit params that only differ in Pr describe — and key
	// — the same plan.
	prm.Pr = 0
	if src == ParamsExplicit {
		if alt, altSrc := lookup(); prm == alt {
			src = altSrc
		}
	}
	desc.Params, desc.Provenance = prm, src
	return desc, nil
}

// resolvePencil finishes resolution for the 2-D decomposition: process-
// grid factoring (explicit Pr or the most nearly square feasible pair),
// the pencil-specific option restrictions, parameter lookup under the
// decomp-aware tuned key, and Pr canonicalization to the resolved rows.
func (cfg *config) resolvePencil(desc PlanDescription) (PlanDescription, error) {
	nx, ny, nz, ranks := cfg.nx, cfg.ny, cfg.nz, cfg.ranks
	switch {
	case nx < 1 || ny < 1 || nz < 1:
		return PlanDescription{}, shapeError("grid", "", fmt.Sprintf("grid %d×%d×%d has a non-positive dimension", nx, ny, nz))
	case ranks < 1:
		return PlanDescription{}, shapeError("ranks", "", fmt.Sprintf("rank count %d must be at least 1", ranks))
	}
	switch cfg.variant {
	case Baseline, NEW, NEW0:
	default:
		return PlanDescription{}, &ConfigError{Field: "variant", Value: cfg.variant.String(), Reason: "the pencil decomposition supports the Baseline, NEW, and NEW0 variants"}
	}
	if cfg.workers > 1 {
		return PlanDescription{}, &ConfigError{Field: "workers", Value: fmt.Sprint(cfg.workers), Reason: "intra-rank worker fan-out is slab-only"}
	}
	store, err := cfg.loadStore()
	if err != nil {
		return PlanDescription{}, err
	}

	// resolvePr factors the process grid a parameter set implies: an
	// explicit Pr pins the row count, 0 asks for the most nearly square
	// feasible factorization.
	resolvePr := func(prm Params) (int, int, error) {
		if prm.Pr == 0 {
			pr, pc, err := pencil.DefaultProcGrid(nx, ny, nz, ranks)
			if err != nil {
				return 0, 0, shapeError("ranks", "", err.Error())
			}
			return pr, pc, nil
		}
		if prm.Pr < 0 || ranks%prm.Pr != 0 {
			return 0, 0, &ConfigError{Field: "params", Value: prm.String(),
				Reason: fmt.Sprintf("Pr=%d does not divide the rank count %d", prm.Pr, ranks)}
		}
		pr, pc := prm.Pr, ranks/prm.Pr
		if _, err := pencil.NewGrid2D(nx, ny, nz, pr, pc, 0); err != nil {
			return 0, 0, shapeError("ranks", "", err.Error())
		}
		return pr, pc, nil
	}
	lookup := func() (Params, ParamSource, error) {
		key := cfg.commKey(tuned.NewKeyDecomp(cfg.machineName, nx, ny, nz, ranks, cfg.variant, Pencil.String()))
		if tp, ok := store.Lookup(key); ok {
			return cfg.pinComm(tp), ParamsTuned, nil
		}
		pr, pc, err := resolvePr(Params{})
		if err != nil {
			return Params{}, 0, err
		}
		g0, err := pencil.NewGrid2D(nx, ny, nz, pr, pc, 0)
		if err != nil {
			return Params{}, 0, shapeError("ranks", "", err.Error())
		}
		return cfg.pinComm(defaultPencilParams(g0)), ParamsDefault, nil
	}
	prm, src, err := lookup()
	if err != nil {
		return PlanDescription{}, err
	}
	if cfg.params != nil {
		prm, src = cfg.pinComm(*cfg.params), ParamsExplicit
	}
	pr, _, err := resolvePr(prm)
	if err != nil {
		return PlanDescription{}, err
	}
	switch {
	case prm.T < 1:
		return PlanDescription{}, &ConfigError{Field: "params", Value: prm.String(), Reason: "T must be at least 1"}
	case prm.W < 1:
		return PlanDescription{}, &ConfigError{Field: "params", Value: prm.String(), Reason: "W must be at least 1"}
	case prm.Fy < 0:
		return PlanDescription{}, &ConfigError{Field: "params", Value: prm.String(), Reason: "Fy must be non-negative"}
	case !prm.Comm.Valid():
		return PlanDescription{}, &ConfigError{Field: "params", Value: prm.String(), Reason: "Comm is not a known exchange schedule"}
	}
	// Canonicalize: the description and the plan pin the factored grid.
	prm.Pr = pr
	if src == ParamsExplicit {
		if alt, altSrc, err := lookup(); err == nil {
			if apr, _, err := resolvePr(alt); err == nil {
				alt.Pr = apr
				if prm == alt {
					src = altSrc
				}
			}
		}
	}
	desc.ProcRows = pr
	desc.Params, desc.Provenance = prm, src
	return desc, nil
}

// defaultPencilParams is the pencil counterpart of the §4.4 default
// point, expressed in the public parameter set: tile and window from
// DefaultParams2D, the unused slab tiling parameters pinned to 1.
func defaultPencilParams(g pencil.Grid2D) Params {
	d := pencil.DefaultParams2D(g)
	return Params{T: d.TA, W: d.WA, Px: 1, Pz: 1, Uy: 1, Uz: 1, Fy: d.F, Fp: d.F, Fu: d.F, Fx: d.F}
}

// TunedStore is a loaded tuned-parameter store (package tuned re-exported
// so long-lived callers — the serve layer — can share one parsed store
// across many plans instead of re-reading the file per NewPlan).
type TunedStore = tuned.Store

// WithTunedStoreHandle is WithTunedStore for an already-loaded store:
// parameter resolution consults it directly, with the same warm-start
// semantics. Takes precedence over WithTunedStore's path.
func WithTunedStoreHandle(s *TunedStore) Option {
	return func(c *config) { c.store = s }
}

// pinComm applies a WithComm pin to a resolved parameter set; without a
// pin the resolved Params.Comm (pairwise unless tuned otherwise) stands.
func (cfg *config) pinComm(prm Params) Params {
	if cfg.comm != nil {
		prm.Comm = *cfg.comm
	}
	return prm
}

// commKey qualifies a tuned-store key with the pinned exchange schedule;
// unpinned (and pinned-pairwise) lookups keep the historical key so
// pre-schedule store files keep resolving.
func (cfg *config) commKey(k tuned.Key) tuned.Key {
	if cfg.comm == nil {
		return k
	}
	return k.WithComm(cfg.comm.String())
}

// loadStore returns the tuned-params store when one was configured. A nil
// *tuned.Store is the valid empty store, so lookups need no guard.
func (cfg *config) loadStore() (*tuned.Store, error) {
	if cfg.store != nil {
		return cfg.store, nil
	}
	if cfg.storePath == "" {
		return nil, nil
	}
	store, err := tuned.Load(cfg.storePath)
	if err != nil {
		return nil, err
	}
	return store, nil
}
