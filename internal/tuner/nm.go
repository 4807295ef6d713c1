package tuner

import (
	"math"
	"math/rand"
	"slices"
	"sort"

	"offt/internal/telemetry"
)

// Objective evaluates one discrete configuration and returns its cost.
// Return +Inf for an infeasible configuration (the paper's penalty
// technique); the framework never "executes" anything itself.
// A search calls its Objective from one goroutine, in the order it commits
// results, so it needs no locking; the Tune* entry points compute batches
// concurrently beneath their own objective and answer it in that order.
type Objective func(cfg []int) float64

// Sample records one suggested configuration and its cost.
type Sample struct {
	Cfg  []int
	Cost float64
}

// Result summarizes a search.
type Result struct {
	Best     []int
	BestCost float64
	// Evals counts objective calls that actually ran (cache misses on
	// feasible points — the expensive part).
	Evals int
	// Suggestions counts every configuration the strategy proposed,
	// including cache hits and infeasible points.
	Suggestions int
	// CacheHits counts suggestions answered from the history cache
	// (the paper's technique 2).
	CacheHits int
	// Infeasible counts suggestions rejected by the +Inf penalty.
	Infeasible int
	// History holds every distinct evaluated configuration in suggestion
	// order (including infeasible ones, with +Inf cost).
	History []Sample
}

// Options controls the Nelder–Mead search.
type Options struct {
	// MaxEvals bounds the number of real objective executions
	// (default 100).
	MaxEvals int
	// InitialSimplex gives the d+1 starting configurations (value space,
	// not index space). Required: the §4.4 construction supplies it for
	// the FFT; tests build their own.
	InitialSimplex [][]int
	// Telemetry, when non-nil, receives per-evaluation metrics under
	// "tuner.*": evaluation/cache-hit/penalty counters, a cost histogram,
	// a best-so-far gauge, and simplex-move counters (reflections,
	// expansions, contractions, shrinks, restarts).
	Telemetry *telemetry.Registry
}

// nmTel holds the tuner's pre-resolved metric handles. All fields are nil
// when no registry is attached; the nil handles make every update a no-op.
type nmTel struct {
	evals, cacheHits, infeasible                            *telemetry.Counter
	reflections, expansions, contractions, shrinks, restart *telemetry.Counter
	costNs                                                  *telemetry.Histogram
	bestCost                                                *telemetry.Gauge
}

func newNMTel(r *telemetry.Registry) nmTel {
	if r == nil {
		return nmTel{}
	}
	return nmTel{
		evals:        r.Counter("tuner.evals"),
		cacheHits:    r.Counter("tuner.cache_hits"),
		infeasible:   r.Counter("tuner.infeasible"),
		reflections:  r.Counter("tuner.moves.reflections"),
		expansions:   r.Counter("tuner.moves.expansions"),
		contractions: r.Counter("tuner.moves.contractions"),
		shrinks:      r.Counter("tuner.moves.shrinks"),
		restart:      r.Counter("tuner.restarts"),
		costNs:       r.Histogram("tuner.eval_cost_ns"),
		bestCost:     r.Gauge("tuner.best_cost_ns"),
	}
}

// nmState carries the bookkeeping shared by the searches.
type nmState struct {
	space Space
	obj   Objective
	cache map[string]float64
	res   *Result
	max   int
	tel   nmTel
	key   []byte // reused cache-key buffer
}

func (st *nmState) evalCfg(cfg []int) float64 {
	st.res.Suggestions++
	st.key = AppendKey(st.key[:0], cfg)
	if c, ok := st.cache[string(st.key)]; ok {
		st.res.CacheHits++
		st.tel.cacheHits.Inc()
		return c
	}
	var cost float64
	if st.res.Evals >= st.max {
		// Budget exhausted: treat as worst so the search winds down.
		cost = math.Inf(1)
	} else {
		cost = st.obj(cfg)
		if !math.IsInf(cost, 1) {
			st.res.Evals++
			st.tel.evals.Inc()
			st.tel.costNs.Observe(int64(cost))
		}
	}
	if math.IsInf(cost, 1) {
		st.res.Infeasible++
		st.tel.infeasible.Inc()
	}
	st.cache[string(st.key)] = cost
	st.res.History = append(st.res.History, Sample{Cfg: append([]int(nil), cfg...), Cost: cost})
	if cost < st.res.BestCost {
		st.res.BestCost = cost
		st.res.Best = append([]int(nil), cfg...)
		st.tel.bestCost.Set(cost)
	}
	return cost
}

func (st *nmState) budgetLeft() bool { return st.res.Evals < st.max }

// evalBatch evaluates configurations all fixed before any cost is known: the
// distinct misses, at most the budget left, go to the prefetch hook, then
// each is committed through evalCfg in index order, as a serial search
// would; with untilBudget it stops after the commit that ends the budget.
func (st *nmState) evalBatch(cfgs [][]int, untilBudget bool) []float64 {
	var miss [][]int
	for _, cfg := range cfgs {
		st.key = AppendKey(st.key[:0], cfg)
		_, hit := st.cache[string(st.key)]
		if !hit && len(miss) < st.max-st.res.Evals && !slices.ContainsFunc(miss, func(m []int) bool { return slices.Equal(m, cfg) }) {
			miss = append(miss, cfg)
		}
	}
	if miss != nil && st.space.prefetch != nil {
		st.space.prefetch(miss)
	}
	costs := make([]float64, 0, len(cfgs))
	for _, cfg := range cfgs {
		if costs = append(costs, st.evalCfg(cfg)); untilBudget && !st.budgetLeft() {
			break
		}
	}
	return costs
}

// NelderMead minimizes the objective over the space with the downhill
// simplex method of Nelder & Mead (1965), adapted to the discrete integer
// domain the way Active Harmony does: simplex points live in continuous
// index coordinates and are rounded to the closest configuration for
// evaluation, with the history cache absorbing repeated suggestions. When
// the simplex collapses onto one configuration before the budget runs out,
// the search restarts from a fresh simplex around the best point — the
// rounding granularity otherwise freezes dimensions prematurely.
func NelderMead(space Space, obj Objective, opt Options) Result {
	d := len(space.Dims)
	if opt.MaxEvals <= 0 {
		opt.MaxEvals = 100
	}
	if len(opt.InitialSimplex) != d+1 {
		panic("tuner: initial simplex must have d+1 points")
	}
	res := Result{BestCost: math.Inf(1)}
	st := &nmState{space: space, obj: obj, cache: map[string]float64{}, res: &res,
		max: opt.MaxEvals, tel: newNMTel(opt.Telemetry)}

	simplex := opt.InitialSimplex
	for restart := 0; restart < 16 && st.budgetLeft(); restart++ {
		if restart > 0 {
			st.tel.restart.Inc()
		}
		before := res.BestCost
		nmRun(st, space, simplex)
		if res.Best == nil || !(res.BestCost < before) {
			break // no improvement from this start: stop
		}
		if !st.budgetLeft() {
			break
		}
		simplex = InitialSimplex(space, res.Best) // a fresh simplex around the best point
	}
	return res
}

// nmRun performs one Nelder–Mead descent from the given starting simplex.
func nmRun(st *nmState, space Space, simplex [][]int) {
	d := len(space.Dims)
	pts := make([][]float64, d+1)
	for i, cfg := range simplex {
		x, err := space.IndexOf(cfg)
		if err != nil {
			panic(err)
		}
		pts[i] = x
	}
	costs := st.evalBatch(simplex, false)

	const (
		alpha = 1.0 // reflection
		gamma = 2.0 // expansion
		rho   = 0.5 // contraction
		sigma = 0.5 // shrink
	)
	order := make([]int, d+1)

	for iter := 0; iter < 400 && st.budgetLeft(); iter++ {
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return costs[order[a]] < costs[order[b]] })
		perm := make([][]float64, d+1)
		permC := make([]float64, d+1)
		for i, o := range order {
			perm[i], permC[i] = pts[o], costs[o]
		}
		pts, costs = perm, permC

		if converged(space, pts) {
			break
		}

		// Centroid of all but the worst.
		c := make([]float64, d)
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				c[j] += pts[i][j]
			}
		}
		for j := 0; j < d; j++ {
			c[j] /= float64(d)
		}
		worst := pts[d]

		xr := lerp(c, worst, -alpha)
		fr := st.evalCfg(space.Clamp(xr))
		switch {
		case fr < costs[0]:
			xe := lerp(c, worst, -gamma)
			if fe := st.evalCfg(space.Clamp(xe)); fe < fr {
				pts[d], costs[d] = xe, fe
				st.tel.expansions.Inc()
			} else {
				pts[d], costs[d] = xr, fr
				st.tel.reflections.Inc()
			}
		case fr < costs[d-1]:
			pts[d], costs[d] = xr, fr
			st.tel.reflections.Inc()
		default:
			var xc []float64
			if fr < costs[d] {
				xc = lerp(c, xr, rho) // outside contraction
			} else {
				xc = lerp(c, worst, rho) // inside contraction
			}
			fc := st.evalCfg(space.Clamp(xc))
			if fc < math.Min(fr, costs[d]) {
				pts[d], costs[d] = xc, fc
				st.tel.contractions.Inc()
			} else {
				// Shrink toward the best point.
				st.tel.shrinks.Inc()
				cfgs := make([][]int, d)
				for i := 1; i <= d; i++ {
					for j := 0; j < d; j++ {
						pts[i][j] = pts[0][j] + sigma*(pts[i][j]-pts[0][j])
					}
					cfgs[i-1] = space.Clamp(pts[i])
				}
				copy(costs[1:], st.evalBatch(cfgs, false))
			}
		}
	}
}

// lerp returns c + t·(x − c).
func lerp(c, x []float64, t float64) []float64 {
	out := make([]float64, len(c))
	for j := range c {
		out[j] = c[j] + t*(x[j]-c[j])
	}
	return out
}

// converged reports whether every simplex point rounds to the same
// configuration ("all the points are close to each other", §4.3).
func converged(space Space, pts [][]float64) bool {
	ref := space.Clamp(pts[0])
	for _, p := range pts[1:] {
		if !slices.Equal(space.Clamp(p), ref) {
			return false
		}
	}
	return true
}

// RandomSearch samples n configurations uniformly from the space (the
// comparison strategy of §5.3.1). Infeasible samples are recorded but do
// not count against the evaluation budget; duplicates hit the cache.
func RandomSearch(space Space, obj Objective, n int, seed int64) Result {
	res := Result{BestCost: math.Inf(1)}
	st := &nmState{space: space, obj: obj, cache: map[string]float64{}, res: &res, max: n}
	rng := rand.New(rand.NewSource(seed))
	for guard := 0; st.budgetLeft() && guard < 100*n; {
		batch := make([][]int, min(st.max-res.Evals, 100*n-guard)) // all committed: no larger than the budget left
		for k := range batch {
			batch[k] = make([]int, len(space.Dims))
			for i, d := range space.Dims {
				batch[k][i] = d.Values[rng.Intn(len(d.Values))]
			}
		}
		guard += len(st.evalBatch(batch, true))
	}
	return res
}
