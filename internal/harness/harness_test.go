package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"offt/internal/layout"
	"offt/internal/pfft"
)

func smallRunner(buf *bytes.Buffer) *Runner {
	return NewRunner(Config{Scale: ScaleSmall, Out: buf, Seed: 7})
}

func TestParseScale(t *testing.T) {
	if s, err := ParseScale("small"); err != nil || s != ScaleSmall {
		t.Error("small")
	}
	if s, err := ParseScale("paper"); err != nil || s != ScalePaper {
		t.Error("paper")
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Error("expected error")
	}
}

func TestSettingsGrids(t *testing.T) {
	if got := len(UMDSettings(ScalePaper)); got != 8 {
		t.Errorf("UMD paper grid has %d settings, want 8", got)
	}
	if got := len(HopperLargeSettings(ScalePaper)); got != 8 {
		t.Errorf("Hopper large grid has %d settings, want 8", got)
	}
	for _, s := range UMDSettings(ScaleSmall) {
		if s.P > 8 || s.N > 64 {
			t.Errorf("small-scale setting too big: %v", s)
		}
	}
}

func TestPaperNumbersPresent(t *testing.T) {
	f, n, th := PaperTable2(Setting{"umd-cluster", 16, 256})
	if f != 0.369 || n != 0.245 || th != 0.319 {
		t.Errorf("paper Table 2 row wrong: %v %v %v", f, n, th)
	}
	f, n, th = PaperTable4(Setting{"hopper", 256, 2048})
	if f != 465.411 || n != 224.744 || th != 75.616 {
		t.Errorf("paper Table 4 row wrong: %v %v %v", f, n, th)
	}
}

func TestTunedForShapeAndCache(t *testing.T) {
	var buf bytes.Buffer
	r := smallRunner(&buf)
	s := Setting{"umd-cluster", 4, 32}
	a, err := r.TunedFor(s)
	if err != nil {
		t.Fatal(err)
	}
	// Headline shape: NEW fastest.
	if !(a.NEW.MaxTotal < a.FFTW.MaxTotal) {
		t.Errorf("NEW %d not faster than FFTW %d", a.NEW.MaxTotal, a.FFTW.MaxTotal)
	}
	if !(a.NEW.MaxTotal < a.THR.MaxTotal) {
		t.Errorf("NEW %d not faster than TH %d", a.NEW.MaxTotal, a.THR.MaxTotal)
	}
	if !(a.NEW.MaxTotal <= a.NEW0.MaxTotal) {
		t.Errorf("NEW %d not faster than NEW-0 %d", a.NEW.MaxTotal, a.NEW0.MaxTotal)
	}
	// Cache returns the identical pointer.
	b, err := r.TunedFor(s)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("cache miss on repeated setting")
	}
}

func TestClampParams(t *testing.T) {
	g := mustGrid(t, 16, 16, 8, 4)
	p := ClampParams(pfft.Params{T: 100, W: 0, Px: 99, Pz: 99, Uy: 99, Uz: 99, Fy: -1}, g)
	if err := p.Validate(g); err != nil {
		t.Errorf("clamped params still invalid: %v (%v)", p, err)
	}
	// Valid params must pass through unchanged.
	q := pfft.DefaultParams(g)
	if ClampParams(q, g) != q {
		t.Error("clamp modified valid params")
	}
}

func TestAllExperimentsSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	var buf bytes.Buffer
	r := smallRunner(&buf)
	for _, e := range All() {
		if err := e.Run(r); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
	}
	out := buf.String()
	for _, marker := range []string{
		"Table 2(a)", "Table 2(b)", "Table 2(c)",
		"Fig. 7(a)", "Fig. 8(a)", "Table 3(a)",
		"Fig. 9(a)", "Table 4(a)", "Fig. 5",
		"Nelder-Mead best",
	} {
		if !strings.Contains(out, marker) {
			t.Errorf("output missing %q", marker)
		}
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("table2a"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("expected error")
	}
	if len(All()) != 18 {
		t.Errorf("expected 18 experiments, got %d", len(All()))
	}
}

func TestEvalBudgetShrinksWithScale(t *testing.T) {
	small, _ := evalBudget(Setting{"hopper", 16, 256})
	big, _ := evalBudget(Setting{"hopper", 256, 2048})
	if !(big < small) {
		t.Errorf("budget should shrink at scale: %d vs %d", big, small)
	}
}

func mustGrid(t *testing.T, nx, ny, nz, p int) layout.Grid {
	t.Helper()
	g, err := layout.NewGrid(nx, ny, nz, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	r := smallRunner(&buf)
	if _, err := r.TunedFor(Setting{"umd-cluster", 4, 32}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := r.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"times.csv", "breakdowns.csv", "params.csv", "tuning.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) < 2 {
			t.Errorf("%s has no data rows", name)
		}
		if !strings.Contains(lines[0], "machine") {
			t.Errorf("%s missing header: %q", name, lines[0])
		}
	}
}

func TestExtensionExperiments(t *testing.T) {
	var buf bytes.Buffer
	r := smallRunner(&buf)
	for _, e := range Extensions() {
		from := buf.Len()
		if err := e.Run(r); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		// A study prints its gate verdicts in gate-name order, the same on
		// every run.
		var gates []string
		for _, line := range strings.Split(buf.String()[from:], "\n") {
			if strings.HasPrefix(line, "gate ") {
				gates = append(gates, strings.Fields(line)[1])
			}
		}
		if !slices.IsSorted(gates) {
			t.Errorf("%s: gate verdicts out of order: %v", e.ID, gates)
		}
		if (e.ID == "crossover" || e.ID == "comm-crossover") && len(gates) < 2 {
			t.Errorf("%s: %d gate verdicts, want at least 2", e.ID, len(gates))
		}
	}
	out := buf.String()
	for _, marker := range []string{"slab-1d", "pencil-2d", "infeasible", "window"} {
		if !strings.Contains(out, marker) {
			t.Errorf("extension output missing %q", marker)
		}
	}
	if _, err := ByID("ext-decomp"); err != nil {
		t.Error(err)
	}
}
