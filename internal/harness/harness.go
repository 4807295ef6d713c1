// Package harness defines one runnable experiment per table and figure in
// the paper's evaluation (§5) and renders paper-style text tables. All
// performance experiments run on the simulated cluster (packages model,
// mpi/sim); tuned configurations are produced by the auto-tuner (package
// tuner) exactly as §4 describes, and results are cached per
// (machine, p, N) setting so related experiments (Table 2, Fig. 7, Fig. 8,
// Table 3, Fig. 9, Table 4) share one tuning run, like the paper's own
// methodology.
package harness

import (
	"fmt"
	"io"
	"sync"

	"offt/internal/layout"
	"offt/internal/machine"
	"offt/internal/model"
	"offt/internal/pfft"
	"offt/internal/telemetry"
	"offt/internal/tuner"
)

// Scale selects the experiment sizes.
type Scale int

const (
	// ScaleSmall shrinks every experiment to laptop-friendly sizes
	// (seconds of wall time); shapes still hold.
	ScaleSmall Scale = iota
	// ScalePaper uses the paper's exact (p, N) grids; the large-scale
	// experiments take tens of minutes of wall time on one core.
	ScalePaper
)

// ParseScale converts a flag value.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "small":
		return ScaleSmall, nil
	case "paper":
		return ScalePaper, nil
	}
	return 0, fmt.Errorf("harness: unknown scale %q (want small or paper)", s)
}

func (s Scale) String() string {
	if s == ScalePaper {
		return "paper"
	}
	return "small"
}

// Config controls a harness run.
type Config struct {
	Scale Scale
	Out   io.Writer
	// Seed drives the random-search experiments (default 1).
	Seed int64
	// Verbose adds progress lines while long experiments run.
	Verbose bool
	// Telemetry, when non-nil, receives tuner per-evaluation metrics and
	// per-setting breakdown observations during TunedFor.
	Telemetry *telemetry.Registry
}

// Setting identifies one evaluated configuration point.
type Setting struct {
	Mach string // machine model name
	P    int    // ranks
	N    int    // per-dimension size (N³ elements)
}

func (s Setting) String() string { return fmt.Sprintf("%s p=%d N=%d³", s.Mach, s.P, s.N) }

// evalBudget returns the Nelder–Mead evaluation budgets (NEW, TH) for a
// setting: large simulated jobs get smaller budgets to keep wall time sane.
func evalBudget(s Setting) (newEvals, thEvals int) {
	switch {
	case s.P >= 256:
		return 12, 6
	case s.P >= 128:
		return 16, 8
	case s.P >= 64:
		return 36, 18
	default:
		return 50, 30
	}
}

// Tuned holds everything the experiments need about one setting.
type Tuned struct {
	Setting Setting
	Mach    machine.Machine
	Grid    layout.Grid

	Params pfft.Params   // NEW's tuned parameters (Table 3)
	TH     pfft.THParams // TH's tuned parameters

	NewTune tuner.TuneOutcome
	THTune  tuner.TuneOutcome

	FFTW model.Result
	NEW  model.Result
	NEW0 model.Result
	THR  model.Result
	TH0  model.Result
}

// Runner caches tuned settings across experiments within one process.
type Runner struct {
	Cfg   Config
	mu    sync.Mutex
	cache map[Setting]*Tuned
}

// NewRunner builds a runner for the given configuration.
func NewRunner(cfg Config) *Runner {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return &Runner{Cfg: cfg, cache: make(map[Setting]*Tuned)}
}

func (r *Runner) logf(format string, args ...any) {
	if r.Cfg.Verbose {
		fmt.Fprintf(r.Cfg.Out, "# "+format+"\n", args...)
	}
}

// TunedFor tunes and measures one setting (cached).
func (r *Runner) TunedFor(s Setting) (*Tuned, error) {
	r.mu.Lock()
	if t, ok := r.cache[s]; ok {
		r.mu.Unlock()
		return t, nil
	}
	r.mu.Unlock()

	m, err := machine.ByName(s.Mach)
	if err != nil {
		return nil, err
	}
	g, err := layout.NewGrid(s.N, s.N, s.N, s.P, 0)
	if err != nil {
		return nil, err
	}
	t := &Tuned{Setting: s, Mach: m, Grid: g}

	newEvals, thEvals := evalBudget(s)
	r.logf("tuning NEW for %v (budget %d)", s, newEvals)
	t.Params, t.NewTune, err = tuner.TuneNEWWith(m, s.P, s.N, newEvals,
		tuner.NelderMeadTelemetry(r.Cfg.Telemetry))
	if err != nil {
		return nil, fmt.Errorf("tuning NEW for %v: %w", s, err)
	}
	r.logf("tuning TH for %v (budget %d)", s, thEvals)
	t.TH, t.THTune, err = tuner.TuneTH(m, s.P, s.N, thEvals)
	if err != nil {
		return nil, fmt.Errorf("tuning TH for %v: %w", s, err)
	}

	r.logf("measuring variants for %v", s)
	runs := []struct {
		dst  *model.Result
		spec model.Spec
	}{
		{&t.FFTW, model.Spec{Variant: pfft.Baseline}},
		{&t.NEW, model.Spec{Variant: pfft.NEW, Params: t.Params}},
		{&t.NEW0, model.Spec{Variant: pfft.NEW0, Params: t.Params}},
		{&t.THR, model.Spec{Variant: pfft.TH, TH: t.TH}},
		{&t.TH0, model.Spec{Variant: pfft.TH0, TH: t.TH}},
	}
	for _, run := range runs {
		res, err := model.SimulateCube(m, s.P, s.N, run.spec)
		if err != nil {
			return nil, fmt.Errorf("measuring %v for %v: %w", run.spec.Variant, s, err)
		}
		*run.dst = res
	}
	// Per-setting average breakdown of the tuned design, for the overlap
	// gauge and step histograms (no-op observer on a nil registry).
	pfft.NewBreakdownObserver(r.Cfg.Telemetry, "model.new").Observe(t.NEW.Avg)

	r.mu.Lock()
	r.cache[s] = t
	r.mu.Unlock()
	return t, nil
}

// MeasureWith simulates a setting's NEW variant with explicit parameters
// (used by the cross-platform experiment, which transplants another
// machine's tuned configuration).
func (r *Runner) MeasureWith(s Setting, prm pfft.Params) (model.Result, error) {
	m, err := machine.ByName(s.Mach)
	if err != nil {
		return model.Result{}, err
	}
	g, err := layout.NewGrid(s.N, s.N, s.N, s.P, 0)
	if err != nil {
		return model.Result{}, err
	}
	// Clamp foreign parameters into this geometry's feasible region the
	// way the paper's general-case code does (it must run, just not well).
	prm = ClampParams(prm, g)
	return model.SimulateCube(m, s.P, s.N, model.Spec{Variant: pfft.NEW, Params: prm})
}

// ClampParams forces a parameter set into the feasible region of geometry
// g, preserving values when already valid.
func ClampParams(p pfft.Params, g layout.Grid) pfft.Params {
	clamp := func(v, lo, hi int) int {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	p.T = clamp(p.T, 1, g.Nz)
	p.W = clamp(p.W, 1, (g.Nz+p.T-1)/p.T)
	p.Px = clamp(p.Px, 1, g.XC())
	p.Pz = clamp(p.Pz, 1, p.T)
	p.Uy = clamp(p.Uy, 1, g.YC())
	p.Uz = clamp(p.Uz, 1, p.T)
	if p.Fy < 0 {
		p.Fy = 0
	}
	if p.Fp < 0 {
		p.Fp = 0
	}
	if p.Fu < 0 {
		p.Fu = 0
	}
	if p.Fx < 0 {
		p.Fx = 0
	}
	if p.Pr < 0 || (p.Pr > 0 && g.P%p.Pr != 0) {
		p.Pr = 0 // fall back to the auto process grid
	}
	return p
}

// --- Setting grids -------------------------------------------------------

// grid builds the cartesian settings list.
func grid(mach string, ps, ns []int) []Setting {
	var out []Setting
	for _, p := range ps {
		for _, n := range ns {
			out = append(out, Setting{Mach: mach, P: p, N: n})
		}
	}
	return out
}

// UMDSettings returns the Table 2(a) grid.
func UMDSettings(s Scale) []Setting {
	if s == ScalePaper {
		return grid("umd-cluster", []int{16, 32}, []int{256, 384, 512, 640})
	}
	return grid("umd-cluster", []int{4, 8}, []int{32, 64})
}

// HopperSettings returns the Table 2(b) grid.
func HopperSettings(s Scale) []Setting {
	if s == ScalePaper {
		return grid("hopper", []int{16, 32}, []int{256, 384, 512, 640})
	}
	return grid("hopper", []int{4, 8}, []int{32, 64})
}

// HopperLargeSettings returns the Table 2(c) grid.
func HopperLargeSettings(s Scale) []Setting {
	if s == ScalePaper {
		return grid("hopper", []int{128, 256}, []int{1280, 1536, 1792, 2048})
	}
	return grid("hopper", []int{16, 32}, []int{96, 128})
}

// Fig8Setting returns the breakdown setting for each Fig. 8 panel.
func Fig8Setting(panel string, s Scale) (Setting, error) {
	if s == ScalePaper {
		switch panel {
		case "a":
			return Setting{"umd-cluster", 32, 640}, nil
		case "b":
			return Setting{"hopper", 32, 640}, nil
		case "c":
			return Setting{"hopper", 256, 2048}, nil
		}
	} else {
		switch panel {
		case "a":
			return Setting{"umd-cluster", 8, 64}, nil
		case "b":
			return Setting{"hopper", 8, 64}, nil
		case "c":
			return Setting{"hopper", 32, 128}, nil
		}
	}
	return Setting{}, fmt.Errorf("harness: unknown fig8 panel %q", panel)
}

// Fig5Setting returns the random-distribution setting (§4.2/Fig. 5).
func Fig5Setting(s Scale) Setting {
	if s == ScalePaper {
		return Setting{"umd-cluster", 16, 256}
	}
	return Setting{"umd-cluster", 4, 32}
}

// PaperTable2 returns the published Table 2 numbers (seconds) for
// side-by-side display, keyed by setting. Missing settings return 0s.
func PaperTable2(s Setting) (fftw, new_, th float64) {
	type row struct{ fftw, new_, th float64 }
	paper := map[Setting]row{
		{"umd-cluster", 16, 256}: {0.369, 0.245, 0.319},
		{"umd-cluster", 16, 384}: {1.207, 0.725, 1.063},
		{"umd-cluster", 16, 512}: {2.948, 1.966, 2.514},
		{"umd-cluster", 16, 640}: {5.927, 3.515, 5.234},
		{"umd-cluster", 32, 256}: {0.189, 0.153, 0.197},
		{"umd-cluster", 32, 384}: {0.653, 0.477, 0.644},
		{"umd-cluster", 32, 512}: {1.580, 1.119, 1.520},
		{"umd-cluster", 32, 640}: {3.129, 2.158, 3.061},
		{"hopper", 16, 256}:      {0.096, 0.087, 0.106},
		{"hopper", 16, 384}:      {0.322, 0.293, 0.354},
		{"hopper", 16, 512}:      {0.836, 0.693, 0.885},
		{"hopper", 16, 640}:      {1.636, 1.428, 1.725},
		{"hopper", 32, 256}:      {0.061, 0.046, 0.061},
		{"hopper", 32, 384}:      {0.189, 0.146, 0.198},
		{"hopper", 32, 512}:      {0.475, 0.340, 0.488},
		{"hopper", 32, 640}:      {0.920, 0.747, 0.930},
		{"hopper", 128, 1280}:    {2.426, 1.638, 2.505},
		{"hopper", 128, 1536}:    {4.722, 3.092, 4.573},
		{"hopper", 128, 1792}:    {8.029, 5.115, 7.746},
		{"hopper", 128, 2048}:    {11.269, 7.079, 12.994},
		{"hopper", 256, 1280}:    {1.373, 0.920, 1.389},
		{"hopper", 256, 1536}:    {2.574, 1.650, 2.452},
		{"hopper", 256, 1792}:    {4.781, 2.850, 4.253},
		{"hopper", 256, 2048}:    {6.467, 3.679, 6.850},
	}
	r := paper[s]
	return r.fftw, r.new_, r.th
}

// PaperTable4 returns the published auto-tuning times (seconds).
func PaperTable4(s Setting) (fftw, new_, th float64) {
	type row struct{ fftw, new_, th float64 }
	paper := map[Setting]row{
		{"umd-cluster", 16, 256}: {22.569, 16.443, 5.732},
		{"umd-cluster", 16, 384}: {60.859, 27.178, 13.279},
		{"umd-cluster", 16, 512}: {87.568, 123.993, 30.916},
		{"umd-cluster", 16, 640}: {202.134, 197.916, 71.724},
		{"umd-cluster", 32, 256}: {14.388, 11.385, 3.768},
		{"umd-cluster", 32, 384}: {44.795, 28.489, 7.834},
		{"umd-cluster", 32, 512}: {67.426, 45.308, 25.124},
		{"umd-cluster", 32, 640}: {174.081, 73.263, 52.897},
		{"hopper", 16, 256}:      {11.413, 9.091, 2.221},
		{"hopper", 16, 384}:      {37.786, 17.342, 17.984},
		{"hopper", 16, 512}:      {69.912, 43.718, 27.020},
		{"hopper", 16, 640}:      {249.358, 87.573, 22.857},
		{"hopper", 32, 256}:      {6.614, 6.467, 1.382},
		{"hopper", 32, 384}:      {23.317, 155.975, 10.425},
		{"hopper", 32, 512}:      {41.969, 165.527, 6.666},
		{"hopper", 32, 640}:      {188.474, 38.279, 15.027},
		{"hopper", 128, 1280}:    {461.240, 140.986, 34.474},
		{"hopper", 128, 1536}:    {460.229, 198.068, 60.475},
		{"hopper", 128, 1792}:    {484.678, 335.273, 83.986},
		{"hopper", 128, 2048}:    {562.398, 396.553, 120.555},
		{"hopper", 256, 1280}:    {400.582, 80.085, 17.172},
		{"hopper", 256, 1536}:    {401.474, 109.250, 34.568},
		{"hopper", 256, 1792}:    {414.020, 144.743, 46.684},
		{"hopper", 256, 2048}:    {465.411, 224.744, 75.616},
	}
	r := paper[s]
	return r.fftw, r.new_, r.th
}
