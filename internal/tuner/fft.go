package tuner

import (
	"fmt"
	"math"
	"time"

	"offt/internal/layout"
	"offt/internal/machine"
	"offt/internal/model"
	"offt/internal/mpi"
	"offt/internal/pencil"
	"offt/internal/pfft"
	"offt/internal/telemetry"
)

// commDim is the exchange-schedule dimension shared by every space that
// searches the 11th parameter: one value per mpi.CommAlg, pairwise first
// so the default point keeps the historical schedule.
func commDim() Dim {
	algs := mpi.CommAlgs()
	vals := make([]int, len(algs))
	for i, a := range algs {
		vals[i] = int(a)
	}
	return Dim{Name: "Comm", Values: vals}
}

// PinComm returns a copy of space with its Comm dimension collapsed to
// the single schedule alg, so a search explores the remaining parameters
// under a pinned exchange (offt-tune -comm). Spaces without a Comm
// dimension pass through unchanged.
func PinComm(space Space, alg mpi.CommAlg) Space {
	dims := append([]Dim(nil), space.Dims...)
	for i, d := range dims {
		if d.Name == "Comm" {
			dims[i] = Dim{Name: "Comm", Values: []int{int(alg)}}
		}
	}
	return Space{Dims: dims, prefetch: space.prefetch}
}

// FFTSpace builds the eleven-dimensional log-reduced search space of the
// paper's design for geometry g (Table 1, with §4.4's reduction: powers of
// two plus boundary values; W keeps its small dense range), extended by
// the all-to-all exchange schedule.
func FFTSpace(g layout.Grid) Space {
	maxF := 16 * g.P
	if maxF < 64 {
		maxF = 64
	}
	return Space{Dims: []Dim{
		{Name: "T", Values: PowersOfTwoUpTo(g.Nz)},
		{Name: "W", Values: IntRange(1, 6)},
		{Name: "Px", Values: PowersOfTwoUpTo(g.XC())},
		{Name: "Pz", Values: PowersOfTwoUpTo(g.Nz)},
		{Name: "Uy", Values: PowersOfTwoUpTo(g.YC())},
		{Name: "Uz", Values: PowersOfTwoUpTo(g.Nz)},
		{Name: "Fy", Values: ZeroAndPowersOfTwoUpTo(maxF)},
		{Name: "Fp", Values: ZeroAndPowersOfTwoUpTo(maxF)},
		{Name: "Fu", Values: ZeroAndPowersOfTwoUpTo(maxF)},
		{Name: "Fx", Values: ZeroAndPowersOfTwoUpTo(maxF)},
		commDim(),
	}}
}

// DecodeParams converts an FFTSpace configuration into Params.
func DecodeParams(cfg []int) pfft.Params {
	return pfft.Params{
		T: cfg[0], W: cfg[1], Px: cfg[2], Pz: cfg[3], Uy: cfg[4], Uz: cfg[5],
		Fy: cfg[6], Fp: cfg[7], Fu: cfg[8], Fx: cfg[9],
		Comm: mpi.CommAlg(cfg[10]),
	}
}

// EncodeParams is the inverse of DecodeParams.
func EncodeParams(p pfft.Params) []int {
	return []int{p.T, p.W, p.Px, p.Pz, p.Uy, p.Uz, p.Fy, p.Fp, p.Fu, p.Fx, int(p.Comm)}
}

// THSpace builds the three-dimensional space for the TH comparison model.
func THSpace(g layout.Grid) Space {
	maxF := 16 * g.P
	if maxF < 64 {
		maxF = 64
	}
	return Space{Dims: []Dim{
		{Name: "T", Values: PowersOfTwoUpTo(g.Nz)},
		{Name: "W", Values: IntRange(1, 6)},
		{Name: "F", Values: ZeroAndPowersOfTwoUpTo(maxF)},
	}}
}

// DecodeTHParams converts a THSpace configuration into THParams.
func DecodeTHParams(cfg []int) pfft.THParams {
	return pfft.THParams{T: cfg[0], W: cfg[1], F: cfg[2]}
}

// snapDown returns the largest space value of dimension d that is <= v
// (the default point must land on the log-reduced grid).
func snapDown(d Dim, v int) int {
	best := d.Values[0]
	for _, x := range d.Values {
		if x <= v {
			best = x
		}
	}
	return best
}

// InitialSimplex builds the §4.4 starting simplex: the default point plus
// one neighbor per dimension (the next value up, or down when already at
// the top of the range).
func InitialSimplex(space Space, def []int) [][]int {
	d := len(space.Dims)
	base := make([]int, d)
	for i, dim := range space.Dims {
		base[i] = snapDown(dim, def[i])
	}
	simplex := [][]int{base}
	for i, dim := range space.Dims {
		pt := append([]int(nil), base...)
		idx := 0
		for j, v := range dim.Values {
			if v == base[i] {
				idx = j
				break
			}
		}
		switch {
		case idx+1 < len(dim.Values):
			pt[i] = dim.Values[idx+1]
		case idx > 0:
			pt[i] = dim.Values[idx-1]
		}
		simplex = append(simplex, pt)
	}
	return simplex
}

// TuneOutcome reports an FFT tuning run.
type TuneOutcome struct {
	Search Result
	// VirtualNs is the simulated time consumed by objective executions
	// (what "auto-tuning time" means on the simulated cluster; FFTz and
	// Transpose are skipped per §4.4 technique 3).
	VirtualNs int64
	// WallNs is the real time the tuning loop took on this host.
	WallNs int64
}

// BestTime returns the tuned objective value (TunedPortion, ns).
func (o TuneOutcome) BestTime() int64 { return int64(o.Search.BestCost) }

// Strategy runs one search over a space from a default starting point
// with an evaluation budget.
type Strategy func(space Space, obj Objective, def []int, budget int) Result

// NelderMeadStrategy adapts NelderMead (with the §4.4 initial simplex) to
// the Strategy signature.
func NelderMeadStrategy(space Space, obj Objective, def []int, budget int) Result {
	return NelderMeadTelemetry(nil)(space, obj, def, budget)
}

// NelderMeadTelemetry returns NelderMeadStrategy with per-evaluation
// telemetry feeding r ("tuner.*" metrics). A nil registry yields the plain
// strategy.
func NelderMeadTelemetry(r *telemetry.Registry) Strategy {
	return func(space Space, obj Objective, def []int, budget int) Result {
		return NelderMead(space, obj, Options{
			MaxEvals:       budget,
			InitialSimplex: InitialSimplex(space, def),
			Telemetry:      r,
		})
	}
}

// CoordinateStrategy adapts CoordinateDescent to the Strategy signature.
func CoordinateStrategy(space Space, obj Objective, def []int, budget int) Result {
	return CoordinateDescent(space, obj, def, budget)
}

// TuneNEW auto-tunes the paper's design for (machine, p, N³) with
// Nelder–Mead and returns the best parameters found.
func TuneNEW(m machine.Machine, p, n, maxEvals int) (pfft.Params, TuneOutcome, error) {
	return TuneNEWWith(m, p, n, maxEvals, NelderMeadStrategy)
}

// TuneNEWWith is TuneNEW with a pluggable search strategy (§7's "other
// optimization strategies").
func TuneNEWWith(m machine.Machine, p, n, maxEvals int, strat Strategy) (pfft.Params, TuneOutcome, error) {
	return TuneNEWPinned(m, p, n, maxEvals, strat, nil)
}

// TuneNEWPinned is TuneNEWWith with an optional pinned exchange schedule:
// a non-nil pin collapses the Comm dimension so the search tunes the
// remaining ten parameters under that schedule (the store entry should
// then be keyed with Key.WithComm). A nil pin searches all schedules.
func TuneNEWPinned(m machine.Machine, p, n, maxEvals int, strat Strategy, pin *mpi.CommAlg) (pfft.Params, TuneOutcome, error) {
	g, err := layout.NewGrid(n, n, n, p, 0)
	if err != nil {
		return pfft.Params{}, TuneOutcome{}, err
	}
	space := FFTSpace(g)
	if pin != nil {
		space = PinComm(space, *pin)
	}
	return tune(space, strat, EncodeParams(pfft.DefaultParams(g)), maxEvals, DecodeParams, simNEW(m, g))
}

// simNEW is the cost of the paper's design with parameters prm: its
// TunedPortion simulated on m over grid g, ns.
func simNEW(m machine.Machine, g layout.Grid) func(prm pfft.Params) (int64, error) {
	return func(prm pfft.Params) (int64, error) {
		if err := prm.Validate(g); err != nil {
			return 0, err
		}
		res, err := model.SimulateCube(m, g.P, g.Nx, model.Spec{Variant: pfft.NEW, Params: prm})
		return res.MaxTuned, err
	}
}

// tune runs strat over space from def with the cost of each decoded
// configuration as the objective, an error marking it infeasible, and
// decodes the best point. A batch the search fixes in advance is computed
// on a lookahead, so cost must be safe for concurrent use; VirtualNs counts
// only the costs the search asked for, and every goroutine is joined first.
func tune[P any](space Space, strat Strategy, def []int, budget int, decode func(cfg []int) P, cost func(prm P) (int64, error)) (P, TuneOutcome, error) {
	prefetch, get, join := lookahead(func(cfg []int) (int64, error) { return cost(decode(cfg)) })
	defer join()
	space.prefetch = prefetch
	var virtual int64
	start := time.Now()
	sr := strat(space, func(cfg []int) float64 {
		ns, err := get(cfg)
		if err != nil {
			return math.Inf(1)
		}
		virtual += ns
		return float64(ns)
	}, def, budget)
	out := TuneOutcome{Search: sr, VirtualNs: virtual, WallNs: time.Since(start).Nanoseconds()}
	if sr.Best == nil {
		var none P
		return none, out, fmt.Errorf("tuner: no feasible configuration found")
	}
	return decode(sr.Best), out, nil
}

// TuneTH auto-tunes the TH comparison model's three parameters.
func TuneTH(m machine.Machine, p, n, maxEvals int) (pfft.THParams, TuneOutcome, error) {
	g, err := layout.NewGrid(n, n, n, p, 0)
	if err != nil {
		return pfft.THParams{}, TuneOutcome{}, err
	}
	def := pfft.DefaultTHParams(g)
	return tune(THSpace(g), NelderMeadStrategy, []int{def.T, def.W, def.F}, maxEvals, DecodeTHParams, func(prm pfft.THParams) (int64, error) {
		if err := prm.Validate(g); err != nil {
			return 0, err
		}
		res, err := model.SimulateCube(m, p, n, model.Spec{Variant: pfft.TH, TH: prm})
		return res.MaxTuned, err
	})
}

// RandomNEW evaluates n random configurations (the §5.3.1 comparison and
// the Fig. 5 distribution) and returns the search record.
func RandomNEW(m machine.Machine, p, n, samples int, seed int64) (TuneOutcome, error) {
	g, err := layout.NewGrid(n, n, n, p, 0)
	if err != nil {
		return TuneOutcome{}, err
	}
	random := func(space Space, obj Objective, _ []int, budget int) Result {
		return RandomSearch(space, obj, budget, seed)
	}
	_, out, _ := tune(FFTSpace(g), random, nil, samples, DecodeParams, simNEW(m, g)) // a record even with no feasible sample
	return out, nil
}

// PencilGridSpace builds the search space of a pencil plan's public
// parameters: the process-grid row count Pr ranges over the feasible
// divisors of the rank count (the Py of each Py×Pz factorization), joined
// by the tile, window, and Test-frequency subset of Table 1 the 2-D
// pipeline consumes. This is the space NewPlan-facing tuning explores —
// the grid shape is a tunable, not an input.
func PencilGridSpace(nx, ny, nz, ranks int) (Space, error) {
	var rows []int
	for pr := 1; pr <= ranks; pr++ {
		if ranks%pr != 0 {
			continue
		}
		if _, err := pencil.NewGrid2D(nx, ny, nz, pr, ranks/pr, 0); err == nil {
			rows = append(rows, pr)
		}
	}
	if len(rows) == 0 {
		return Space{}, fmt.Errorf("tuner: no feasible pencil process grid for %d ranks over %d×%d×%d", ranks, nx, ny, nz)
	}
	maxT := nx
	if nz > maxT {
		maxT = nz
	}
	maxF := 8 * ranks
	if maxF < 64 {
		maxF = 64
	}
	return Space{Dims: []Dim{
		{Name: "Pr", Values: rows},
		{Name: "T", Values: PowersOfTwoUpTo(maxT)},
		{Name: "W", Values: IntRange(1, 6)},
		{Name: "Fy", Values: ZeroAndPowersOfTwoUpTo(maxF)},
		commDim(),
	}}, nil
}

// DecodePencilGridParams converts a PencilGridSpace configuration into
// the public parameter set (Pr pinned to the searched row count, the
// slab-only tiling fields at their neutral 1).
func DecodePencilGridParams(cfg []int) pfft.Params {
	return pfft.Params{
		T: cfg[1], W: cfg[2], Px: 1, Pz: 1, Uy: 1, Uz: 1,
		Fy: cfg[3], Fp: cfg[3], Fu: cfg[3], Fx: cfg[3], Pr: cfg[0],
		Comm: mpi.CommAlg(cfg[4]),
	}
}

// TunePencilNEW auto-tunes the overlapped pencil transform for a total
// rank count on machine m, searching the process-grid factorization
// together with the pipeline parameters. The returned Params carry the
// winning Pr, ready for WithParams on a WithDecomp(Pencil) plan or a
// decomp-keyed tuned-store entry.
func TunePencilNEW(m machine.Machine, ranks, n, maxEvals int) (pfft.Params, TuneOutcome, error) {
	return TunePencilNEWPinned(m, ranks, n, maxEvals, nil)
}

// TunePencilNEWPinned is TunePencilNEW with an optional pinned exchange
// schedule (see TuneNEWPinned).
func TunePencilNEWPinned(m machine.Machine, ranks, n, maxEvals int, pin *mpi.CommAlg) (pfft.Params, TuneOutcome, error) {
	space, err := PencilGridSpace(n, n, n, ranks)
	if err != nil {
		return pfft.Params{}, TuneOutcome{}, err
	}
	if pin != nil {
		space = PinComm(space, *pin)
	}
	dpr, dpc, err := pencil.DefaultProcGrid(n, n, n, ranks)
	if err != nil {
		return pfft.Params{}, TuneOutcome{}, err
	}
	g0, err := pencil.NewGrid2D(n, n, n, dpr, dpc, 0)
	if err != nil {
		return pfft.Params{}, TuneOutcome{}, err
	}
	d2 := pencil.DefaultParams2D(g0)
	def := []int{dpr, d2.TA, d2.WA, d2.F, int(mpi.CommPairwise)}
	return tune(space, NelderMeadStrategy, def, maxEvals, DecodePencilGridParams, func(prm pfft.Params) (int64, error) {
		pr, pc := prm.Pr, ranks/prm.Pr
		g, err := pencil.NewGrid2D(n, n, n, pr, pc, 0)
		if err != nil {
			return 0, err
		}
		return pencil.SimulateOverlappedGrid(m, pr, pc, n, n, n, pencil.FromParams(prm, g))
	})
}
