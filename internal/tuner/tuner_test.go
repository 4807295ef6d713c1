package tuner

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"offt/internal/layout"
	"offt/internal/machine"
	"offt/internal/model"
	"offt/internal/pencil"
	"offt/internal/pfft"
)

func grid10(t *testing.T) Space {
	t.Helper()
	return Space{Dims: []Dim{
		{Name: "a", Values: IntRange(0, 20)},
		{Name: "b", Values: IntRange(0, 20)},
		{Name: "c", Values: IntRange(0, 20)},
	}}
}

// quadratic builds a convex objective with its minimum at target.
func quadratic(target []int, calls *int) Objective {
	return func(cfg []int) float64 {
		*calls++
		s := 0.0
		for i, v := range cfg {
			d := float64(v - target[i])
			s += d * d
		}
		return s
	}
}

func simplexAround(space Space, base []int) [][]int {
	return InitialSimplex(space, base)
}

func TestNelderMeadFindsConvexMinimum(t *testing.T) {
	space := grid10(t)
	target := []int{7, 13, 4}
	calls := 0
	res := NelderMead(space, quadratic(target, &calls), Options{
		MaxEvals:       200,
		InitialSimplex: simplexAround(space, []int{0, 0, 0}),
	})
	if res.BestCost > 2 {
		t.Errorf("NM best %v cost %g, want near %v", res.Best, res.BestCost, target)
	}
	if res.Evals != calls {
		t.Errorf("Evals %d != objective calls %d", res.Evals, calls)
	}
}

func TestNelderMeadRespectsBudget(t *testing.T) {
	space := grid10(t)
	calls := 0
	res := NelderMead(space, quadratic([]int{20, 20, 20}, &calls), Options{
		MaxEvals:       10,
		InitialSimplex: simplexAround(space, []int{0, 0, 0}),
	})
	if calls > 10 {
		t.Errorf("objective ran %d times with budget 10", calls)
	}
	if res.Evals > 10 {
		t.Errorf("Evals %d exceeds budget", res.Evals)
	}
}

func TestNelderMeadCacheReusesRepeats(t *testing.T) {
	space := grid10(t)
	calls := 0
	res := NelderMead(space, quadratic([]int{3, 3, 3}, &calls), Options{
		MaxEvals:       300,
		InitialSimplex: simplexAround(space, []int{2, 2, 2}),
	})
	// Near convergence the rounded configurations repeat; the cache must
	// absorb them (the paper's technique 2).
	if res.CacheHits == 0 {
		t.Error("expected cache hits near convergence")
	}
	if res.Suggestions != res.CacheHits+len(res.History) {
		t.Errorf("bookkeeping: suggestions %d != cache hits %d + distinct %d",
			res.Suggestions, res.CacheHits, len(res.History))
	}
}

func TestNelderMeadPenaltyAvoidsInfeasible(t *testing.T) {
	space := grid10(t)
	calls := 0
	// Infeasible whenever b > a (mimicking Pz > T).
	obj := func(cfg []int) float64 {
		if cfg[1] > cfg[0] {
			return math.Inf(1)
		}
		return quadratic([]int{10, 5, 5}, &calls)(cfg)
	}
	res := NelderMead(space, obj, Options{
		MaxEvals:       200,
		InitialSimplex: simplexAround(space, []int{10, 10, 10}),
	})
	if res.Best == nil {
		t.Fatal("no feasible point found")
	}
	if res.Best[1] > res.Best[0] {
		t.Errorf("best %v is infeasible", res.Best)
	}
	if res.Infeasible == 0 {
		t.Error("expected some infeasible suggestions to be penalized")
	}
	// NM is a heuristic: it need not hit the constrained optimum (cost 0),
	// but it must clearly improve on the starting point (cost 50).
	if res.BestCost > 30 {
		t.Errorf("NM best cost %g too far from constrained optimum", res.BestCost)
	}
}

func TestRandomSearchDeterministicBySeed(t *testing.T) {
	space := grid10(t)
	calls := 0
	obj := quadratic([]int{9, 9, 9}, &calls)
	a := RandomSearch(space, obj, 30, 42)
	b := RandomSearch(space, obj, 30, 42)
	if Key(a.Best) != Key(b.Best) || a.BestCost != b.BestCost {
		t.Error("same seed produced different results")
	}
	c := RandomSearch(space, obj, 30, 43)
	if len(c.History) == 0 {
		t.Error("empty history")
	}
}

func TestPowersOfTwoUpTo(t *testing.T) {
	cases := []struct {
		max  int
		want string
	}{
		{1, "[1]"},
		{2, "[1 2]"},
		{24, "[1 2 4 8 16 24]"}, // the paper's Nz=24 example (§4.4)
		{32, "[1 2 4 8 16 32]"},
		{0, "[1]"},
	}
	for _, c := range cases {
		if got := fmt.Sprint(PowersOfTwoUpTo(c.max)); got != c.want {
			t.Errorf("PowersOfTwoUpTo(%d) = %v, want %v", c.max, got, c.want)
		}
	}
	if got := fmt.Sprint(ZeroAndPowersOfTwoUpTo(4)); got != "[0 1 2 4]" {
		t.Errorf("ZeroAndPowersOfTwoUpTo(4) = %v", got)
	}
}

func TestFFTSpaceShape(t *testing.T) {
	g, err := layout.NewGrid(256, 256, 256, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	space := FFTSpace(g)
	if len(space.Dims) != 11 {
		t.Fatalf("11 parameters expected (Table 1 plus Comm), got %d", len(space.Dims))
	}
	// The paper argues the unreduced space is huge (~10^10); even reduced
	// it must stay large enough to justify auto-tuning.
	if space.Size() < 1_000_000 {
		t.Errorf("reduced space suspiciously small: %d", space.Size())
	}
	// Round-trip encode/decode.
	prm := pfft.DefaultParams(g)
	back := DecodeParams(EncodeParams(prm))
	if back != prm {
		t.Errorf("encode/decode mismatch: %v vs %v", back, prm)
	}
}

func TestInitialSimplexOnGridAndDistinct(t *testing.T) {
	g, err := layout.NewGrid(64, 64, 48, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	space := FFTSpace(g)
	def := EncodeParams(pfft.DefaultParams(g))
	sx := InitialSimplex(space, def)
	if len(sx) != len(space.Dims)+1 {
		t.Fatalf("simplex size %d, want %d", len(sx), len(space.Dims)+1)
	}
	seen := map[string]bool{}
	for _, pt := range sx {
		if _, err := space.IndexOf(pt); err != nil {
			t.Errorf("simplex point off grid: %v (%v)", pt, err)
		}
		k := Key(pt)
		if seen[k] {
			t.Errorf("duplicate simplex point %v", pt)
		}
		seen[k] = true
	}
}

func TestTuneNEWImprovesOnDefault(t *testing.T) {
	m := machine.UMDCluster()
	p, n := 4, 32
	g, _ := layout.NewGrid(n, n, n, p, 0)
	def, err := model.SimulateCube(m, p, n, model.Spec{Variant: pfft.NEW, Params: pfft.DefaultParams(g)})
	if err != nil {
		t.Fatal(err)
	}
	prm, out, err := TuneNEW(m, p, n, 60)
	if err != nil {
		t.Fatal(err)
	}
	if err := prm.Validate(g); err != nil {
		t.Errorf("tuned params invalid: %v", err)
	}
	if out.BestTime() > def.MaxTuned {
		t.Errorf("tuned cost %d worse than default %d", out.BestTime(), def.MaxTuned)
	}
	if out.VirtualNs <= 0 || out.WallNs <= 0 {
		t.Errorf("missing tuning-time accounting: %+v", out)
	}
	if out.Search.Evals > 60 {
		t.Errorf("budget exceeded: %d evals", out.Search.Evals)
	}
}

func TestTuneTHImprovesOnDefault(t *testing.T) {
	m := machine.Hopper()
	p, n := 4, 32
	g, _ := layout.NewGrid(n, n, n, p, 0)
	def, err := model.SimulateCube(m, p, n, model.Spec{Variant: pfft.TH, TH: pfft.DefaultTHParams(g)})
	if err != nil {
		t.Fatal(err)
	}
	prm, out, err := TuneTH(m, p, n, 40)
	if err != nil {
		t.Fatal(err)
	}
	if err := prm.Validate(g); err != nil {
		t.Errorf("tuned TH params invalid: %v", err)
	}
	if out.BestTime() > def.MaxTuned {
		t.Errorf("tuned cost %d worse than default %d", out.BestTime(), def.MaxTuned)
	}
}

func TestNMBeatsRandomMedian(t *testing.T) {
	// §5.3.1: NM's deterministic descent finds a good configuration faster
	// than random search. Compare NM's best against the median of the
	// random distribution at equal budget.
	m := machine.UMDCluster()
	p, n := 4, 32
	_, nm, err := TuneNEW(m, p, n, 35)
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := RandomNEW(m, p, n, 35, 99)
	if err != nil {
		t.Fatal(err)
	}
	var feasible []float64
	for _, s := range rnd.Search.History {
		if !math.IsInf(s.Cost, 1) {
			feasible = append(feasible, s.Cost)
		}
	}
	if len(feasible) < 5 {
		t.Fatalf("too few feasible random samples: %d", len(feasible))
	}
	sort.Float64s(feasible)
	median := feasible[len(feasible)/2]
	if nm.Search.BestCost > median {
		t.Errorf("NM best %g worse than random median %g", nm.Search.BestCost, median)
	}
}

func TestCoordinateDescentFindsConvexMinimum(t *testing.T) {
	space := grid10(t)
	target := []int{7, 13, 4}
	calls := 0
	res := CoordinateDescent(space, quadratic(target, &calls), []int{0, 0, 0}, 400)
	if res.BestCost != 0 {
		t.Errorf("coordinate descent best %v cost %g, want exactly %v (separable objective)",
			res.Best, res.BestCost, target)
	}
	if res.Evals != calls {
		t.Errorf("Evals %d != calls %d", res.Evals, calls)
	}
}

func TestCoordinateDescentRespectsBudget(t *testing.T) {
	space := grid10(t)
	calls := 0
	CoordinateDescent(space, quadratic([]int{20, 20, 20}, &calls), []int{0, 0, 0}, 7)
	if calls > 7 {
		t.Errorf("objective ran %d times with budget 7", calls)
	}
}

func TestCoordinateDescentHandlesConstraints(t *testing.T) {
	space := grid10(t)
	calls := 0
	obj := func(cfg []int) float64 {
		if cfg[1] > cfg[0] {
			return math.Inf(1)
		}
		return quadratic([]int{10, 5, 5}, &calls)(cfg)
	}
	res := CoordinateDescent(space, obj, []int{10, 10, 10}, 300)
	if res.Best == nil || res.Best[1] > res.Best[0] {
		t.Errorf("best %v violates constraint", res.Best)
	}
}

func TestTuneNEWWithCoordinateStrategy(t *testing.T) {
	m := machine.UMDCluster()
	prm, out, err := TuneNEWWith(m, 4, 32, 40, CoordinateStrategy)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := layout.NewGrid(32, 32, 32, 4, 0)
	if err := prm.Validate(g); err != nil {
		t.Errorf("coordinate-tuned params invalid: %v", err)
	}
	def, err := model.SimulateCube(m, 4, 32, model.Spec{Variant: pfft.NEW, Params: pfft.DefaultParams(g)})
	if err != nil {
		t.Fatal(err)
	}
	if out.BestTime() > def.MaxTuned {
		t.Errorf("coordinate descent (%d) worse than default (%d)", out.BestTime(), def.MaxTuned)
	}
}

func TestTunePencilNEWSearchesProcGrid(t *testing.T) {
	m := machine.UMDCluster()
	ranks, n := 16, 64
	prm, out, err := TunePencilNEW(m, ranks, n, 40)
	if err != nil {
		t.Fatal(err)
	}
	if prm.Pr < 1 || ranks%prm.Pr != 0 {
		t.Fatalf("tuned Pr=%d must divide the rank count %d", prm.Pr, ranks)
	}
	g, err := pencil.NewGrid2D(n, n, n, prm.Pr, ranks/prm.Pr, 0)
	if err != nil {
		t.Fatalf("tuned grid infeasible: %v", err)
	}
	if err := pencil.FromParams(prm, g).Validate(g); err != nil {
		t.Errorf("tuned params invalid: %v", err)
	}
	// The default grid's default point is in the search space, so the
	// search result cannot be worse.
	dpr, dpc, err := pencil.DefaultProcGrid(n, n, n, ranks)
	if err != nil {
		t.Fatal(err)
	}
	g0, _ := pencil.NewGrid2D(n, n, n, dpr, dpc, 0)
	def, err := pencil.SimulateOverlappedGrid(m, dpr, dpc, n, n, n, pencil.DefaultParams2D(g0))
	if err != nil {
		t.Fatal(err)
	}
	if out.BestTime() > def {
		t.Errorf("tuned (%d) worse than default grid's default point (%d)", out.BestTime(), def)
	}
	space, err := PencilGridSpace(n, n, n, ranks)
	if err != nil {
		t.Fatal(err)
	}
	if len(space.Dims) != 5 || space.Dims[0].Name != "Pr" || space.Dims[4].Name != "Comm" {
		t.Errorf("unexpected pencil grid space %v", space.Dims)
	}
}

// BenchmarkTuneNEW is the benchmark's tune-sim-128-p16 op as a go test
// benchmark: one whole tuning run of the paper's design on the simulator,
// where vclock, simnet, mpi/sim and model do all the work and no FFT data
// moves. ROADMAP's profile row is this under -cpuprofile.
func BenchmarkTuneNEW(b *testing.B) {
	m := machine.UMDCluster()
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := TuneNEW(m, 16, 128, 40); err != nil {
			b.Fatal(err)
		}
	}
}
