package tuner

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"offt/internal/layout"
	"offt/internal/machine"
	"offt/internal/pfft"
)

var errInfeasible = errors.New("infeasible")

// countingCost is a cost function safe for concurrent use that records
// how often each configuration was computed.
type countingCost struct {
	mu    sync.Mutex
	calls map[string]int
	cost  func(cfg []int) (int64, error)
}

func newCountingCost(cost func(cfg []int) (int64, error)) *countingCost {
	return &countingCost{calls: map[string]int{}, cost: cost}
}

func (c *countingCost) fn(cfg []int) (int64, error) {
	c.mu.Lock()
	c.calls[Key(cfg)]++
	c.mu.Unlock()
	return c.cost(cfg)
}

func (c *countingCost) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, k := range c.calls {
		n += k
	}
	return n
}

// asIs decodes a configuration into itself, for tunes over synthetic costs.
func asIs(cfg []int) []int { return cfg }

// serialObjective is the objective a tune had before batches were computed
// concurrently: cost called inline, infeasible as +Inf.
func serialObjective(cost func(cfg []int) (int64, error)) Objective {
	return func(cfg []int) float64 {
		ns, err := cost(cfg)
		if err != nil {
			return math.Inf(1)
		}
		return float64(ns)
	}
}

// TestBatchAcrossBudgetMatchesSerial: an eleven-dimensional initial simplex
// (twelve points, one infeasible) against a budget of five evaluations.
// The lookahead may start at most the five misses the budget allows; the
// sixth feasible point is computed inline, and the six points past the
// budget are committed as +Inf without being computed.
func TestBatchAcrossBudgetMatchesSerial(t *testing.T) {
	dims := make([]Dim, 11)
	for i := range dims {
		dims[i] = Dim{Name: string(rune('a' + i)), Values: IntRange(0, 8)}
	}
	space := Space{Dims: dims}
	cost := func(cfg []int) (int64, error) {
		if cfg[2] == 1 {
			return 0, errInfeasible
		}
		s := int64(1000)
		for i, v := range cfg {
			s += int64((i + 1) * (v - 3) * (v - 3))
		}
		return s, nil
	}
	def := make([]int, len(dims))
	serial := NelderMeadStrategy(space, serialObjective(cost), def, 5)

	cc := newCountingCost(cost)
	_, out, err := tune(space, NelderMeadStrategy, def, 5, asIs, cc.fn)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Search, serial) {
		t.Errorf("search with lookahead:\n%+v\nserial:\n%+v", out.Search, serial)
	}
	var sum int64
	for _, s := range out.Search.History {
		if !math.IsInf(s.Cost, 1) {
			sum += int64(s.Cost)
		}
	}
	if out.VirtualNs != sum {
		t.Errorf("VirtualNs %d, want %d: the sum of the committed costs", out.VirtualNs, sum)
	}
	// Five evaluations and the one infeasible point; nothing past the budget.
	if got := cc.total(); got != 6 || out.Search.Evals != 5 {
		t.Errorf("%d costs computed for %d evaluations, want 6 for 5", got, out.Search.Evals)
	}
}

// settledGoroutines returns how many goroutines exist and how many of them
// run lookahead code, from one snapshot taken once none of the latter is
// left or after a second. A worker joined through a WaitGroup still runs
// for the few instructions it takes to return, and Go cannot observe a
// goroutine's exit synchronously; a leaked worker never retires. Whether a
// worker was still computing when a tune returned is checked exactly
// elsewhere.
func settledGoroutines() (all, workers int) {
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(time.Second); ; runtime.Gosched() {
		all, workers = 0, 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			all++
			if strings.Contains(g, "tuner.lookahead") {
				workers++
			}
		}
		if workers == 0 || time.Now().After(deadline) {
			return all, workers
		}
	}
}

// checkNoGoroutineLeft fails t if a lookahead goroutine is left or the
// goroutine count rose above before.
func checkNoGoroutineLeft(t *testing.T, before int) {
	t.Helper()
	if after, workers := settledGoroutines(); workers != 0 || after > before {
		t.Errorf("%d goroutines before the tune, %d after, %d of them lookahead workers", before, after, workers)
	}
}

// TestUnaskedCostIsNotCounted: a batch whose costs are started but only
// partly asked for, as when a strategy stops early. The tune counts only
// the asked-for cost, yet has joined every computation when it returns: the
// unasked ones are slow, so a tune that did not wait for them would return
// while they still run. It leaves no goroutine behind.
func TestUnaskedCostIsNotCounted(t *testing.T) {
	before, _ := settledGoroutines()
	space := grid10(t)
	var inflight atomic.Int64
	cc := newCountingCost(func(cfg []int) (int64, error) {
		inflight.Add(1)
		defer inflight.Add(-1)
		if cfg[0] != 2 {
			time.Sleep(20 * time.Millisecond)
		}
		return int64(100 + cfg[0]), nil
	})
	_, out, err := tune(space, func(s Space, obj Objective, _ []int, _ int) Result {
		s.prefetch([][]int{{1, 0, 0}, {2, 0, 0}, {3, 0, 0}, {4, 0, 0}})
		return Result{Best: []int{2, 0, 0}, BestCost: obj([]int{2, 0, 0})}
	}, nil, 0, asIs, cc.fn)
	if n, calls := inflight.Load(), cc.total(); n != 0 || calls != 4 {
		t.Errorf("%d costs still being computed, %d computed, when the tune returned; want 0 and 4", n, calls)
	}
	if err != nil {
		t.Fatal(err)
	}
	if out.VirtualNs != 102 {
		t.Errorf("VirtualNs %d, want 102: only the asked-for cost", out.VirtualNs)
	}
	checkNoGoroutineLeft(t, before)
	for k, n := range cc.calls {
		if n != 1 {
			t.Errorf("%s computed %d times", k, n)
		}
	}
}

// TestRepeatInBatchComputedOnce: a simplex that names one configuration
// twice computes it once; the repeat is a cache hit.
func TestRepeatInBatchComputedOnce(t *testing.T) {
	space := grid10(t)
	cc := newCountingCost(func(cfg []int) (int64, error) {
		return int64(1 + cfg[0]*cfg[0] + cfg[1]*cfg[1] + cfg[2]*cfg[2]), nil
	})
	simplex := [][]int{{5, 5, 5}, {6, 5, 5}, {5, 5, 5}, {5, 5, 6}}
	_, out, err := tune(space, func(s Space, obj Objective, _ []int, budget int) Result {
		return NelderMead(s, obj, Options{MaxEvals: budget, InitialSimplex: simplex})
	}, nil, 3, asIs, cc.fn)
	if err != nil {
		t.Fatal(err)
	}
	if n := cc.calls["5,5,5"]; n != 1 {
		t.Errorf("repeated point computed %d times, want once", n)
	}
	if r := out.Search; r.Evals != 3 || r.CacheHits < 1 || len(r.History) != 3 {
		t.Errorf("evals %d, cache hits %d, history %d; want 3, ≥ 1, 3", r.Evals, r.CacheHits, len(r.History))
	}
}

// TestObjectiveCalledInCommitOrder drives TuneNEWWith with an objective
// that is unsafe for concurrent use — a plain counter and an appended
// slice, like the benchmark's tracer — and checks that it sees exactly the
// calls a serial search makes, in the same order. Under -race a concurrent
// call would be reported.
func TestObjectiveCalledInCommitOrder(t *testing.T) {
	m := machine.UMDCluster()
	g, err := layout.NewGrid(32, 32, 32, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		strat Strategy
	}{{"nelder-mead", NelderMeadStrategy}, {"coordinate", CoordinateStrategy}} {
		var calls int
		var seen []string
		traced := func(space Space, obj Objective, def []int, budget int) Result {
			return c.strat(space, func(cfg []int) float64 {
				calls++
				seen = append(seen, Key(cfg))
				return obj(cfg)
			}, def, budget)
		}
		if _, _, err := TuneNEWWith(m, 4, 32, 30, traced); err != nil {
			t.Fatal(err)
		}
		var want []string
		cost := simNEW(m, g)
		serial := serialObjective(func(cfg []int) (int64, error) { return cost(DecodeParams(cfg)) })
		c.strat(FFTSpace(g), func(cfg []int) float64 {
			want = append(want, Key(cfg))
			return serial(cfg)
		}, EncodeParams(pfft.DefaultParams(g)), 30)
		if !slices.Equal(seen, want) || calls != len(want) {
			t.Errorf("%s: objective saw %d calls %v, a serial search makes %v", c.name, calls, seen, want)
		}
	}
}

// TestTuneLeavesNoGoroutine: a tune whose budget runs out in the middle of
// its first batch (five evaluations, a twelve-point simplex) joins every
// worker before it returns.
func TestTuneLeavesNoGoroutine(t *testing.T) {
	before, _ := settledGoroutines()
	if _, _, err := TuneNEW(machine.UMDCluster(), 4, 32, 5); err != nil {
		t.Fatal(err)
	}
	checkNoGoroutineLeft(t, before)
}
