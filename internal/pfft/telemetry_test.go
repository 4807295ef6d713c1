package pfft

import (
	"testing"

	"offt/internal/fft"
	"offt/internal/layout"
	"offt/internal/mpi/mem"
	"offt/internal/telemetry"
)

func TestOverlapEfficiency(t *testing.T) {
	cases := []struct {
		name string
		b    Breakdown
		want float64
	}{
		{"zero comm", Breakdown{FFTy: 100, Pack: 50, Unpack: 50, FFTx: 100}, 1.0},
		{"fully hidden (zero everything)", Breakdown{}, 1.0},
		{"only visible comm", Breakdown{Wait: 200, Ialltoall: 50}, 0.0},
		{"half hidden", Breakdown{FFTy: 100, Wait: 100}, 0.5},
		{"mixed", Breakdown{FFTy: 60, Pack: 20, Unpack: 10, FFTx: 10, Ialltoall: 10, Wait: 80, Test: 10}, 0.5},
	}
	for _, c := range cases {
		if got := c.b.OverlapEfficiency(); got != c.want {
			t.Errorf("%s: OverlapEfficiency() = %v, want %v", c.name, got, c.want)
		}
	}
}

// planTraces runs fwd+bwd (or fwd only) through a traced Plan on a mem
// world and returns the per-rank traces of the last executed direction.
func planTraces(t *testing.T, nx, p int, v Variant, backward bool) [][]StepEvent {
	t.Helper()
	full := randCube(nx, nx, nx, 7)
	want := serialReference(full, nx, nx, nx)
	w := mem.NewWorld(p)
	outs := make([][]complex128, p)
	traces := make([][]StepEvent, p)
	err := w.Run(func(c *mem.Comm) {
		g, err := layout.NewGrid(nx, nx, nx, p, c.Rank())
		if err != nil {
			panic(err)
		}
		prm := DefaultParams(g)
		pl, err := NewPlan(c, g, v, prm, fft.Estimate, WithTrace())
		if err != nil {
			panic(err)
		}
		defer pl.Close()
		in := append([]complex128(nil), layout.ScatterX(full, g)...)
		out, _, err := pl.Forward(in)
		if err != nil {
			panic(err)
		}
		if backward {
			mid := append([]complex128(nil), out...)
			if out, _, err = pl.Backward(mid); err != nil {
				panic(err)
			}
		}
		outs[c.Rank()] = append([]complex128(nil), out...)
		traces[c.Rank()] = append([]StepEvent(nil), pl.Trace()...)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !backward {
		got := layout.GatherY(outs, nx, nx, nx, p)
		if e := maxErr(got, want); e > tol {
			t.Fatalf("traced plan changed the forward result: %g", e)
		}
	}
	return traces
}

// TestPlanTraceBackward covers the trace recorder on the backward
// (overlapped) path: every inverse pipeline step must appear, the
// all-to-all posts must carry tile indices, and post→wait flow pairing
// must hold.
func TestPlanTraceBackward(t *testing.T) {
	traces := planTraces(t, 8, 2, NEW, true)
	ev := traces[0]
	if len(ev) == 0 {
		t.Fatal("no backward events recorded")
	}
	seen := map[string]bool{}
	postTiles, waitTiles := map[int]bool{}, map[int]bool{}
	for i, e := range ev {
		seen[e.Name] = true
		if e.End < e.Start {
			t.Errorf("event %d (%s): end before start", i, e.Name)
		}
		switch e.Name {
		case "Ialltoall":
			if e.Tile < 0 {
				t.Errorf("backward Ialltoall event missing tile attribution")
			}
			postTiles[e.Tile] = true
		case "Wait":
			if e.Tile >= 0 {
				waitTiles[e.Tile] = true
			}
		}
	}
	for _, name := range []string{"FFTx", "Pack", "Ialltoall", "Wait", "Unpack", "FFTy", "FFTz"} {
		if !seen[name] {
			t.Errorf("backward trace missing %s event", name)
		}
	}
	if seen["Transpose"] {
		t.Error("backward trace has a Transpose event; FFTz⁻¹ reads the post-transpose layout itself")
	}
	for tile := range postTiles {
		if !waitTiles[tile] {
			t.Errorf("posted tile %d has no matching wait", tile)
		}
	}
	tl := TraceTimeline(traces)
	if len(tl.Flows) == 0 {
		t.Error("backward timeline has no post→wait flows")
	}
	for _, f := range tl.Flows {
		if f.ToTs < f.FromTs {
			t.Errorf("flow %d finishes before it starts", f.ID)
		}
	}
}

// TestPlanTraceBlocking covers the trace recorder on the blocking path:
// the Baseline variant must record Alltoall collectives (no non-blocking
// posts, no waits) around the same kernel steps.
func TestPlanTraceBlocking(t *testing.T) {
	traces := planTraces(t, 8, 2, Baseline, false)
	ev := traces[0]
	if len(ev) == 0 {
		t.Fatal("no blocking events recorded")
	}
	seen := map[string]bool{}
	for _, e := range ev {
		seen[e.Name] = true
	}
	if !seen["Alltoall"] {
		t.Error("blocking trace missing Alltoall event")
	}
	if seen["Ialltoall"] || seen["Wait"] {
		t.Error("blocking trace must not contain non-blocking post/wait events")
	}
	for _, name := range []string{"FFTz", "FFTy", "Pack", "Unpack", "FFTx"} {
		if !seen[name] {
			t.Errorf("blocking trace missing %s event", name)
		}
	}
	if seen["Transpose"] {
		t.Error("blocking trace has a Transpose event; FFTz writes the post-transpose layout itself")
	}
}

// TestPlanTraceBackwardBlocking covers the backward engine's blocking
// pipeline (window 0) under trace.
func TestPlanTraceBackwardBlocking(t *testing.T) {
	traces := planTraces(t, 8, 2, Baseline, true)
	seen := map[string]bool{}
	for _, e := range traces[0] {
		seen[e.Name] = true
	}
	if !seen["Alltoall"] {
		t.Error("backward blocking trace missing Alltoall event")
	}
	for _, name := range []string{"FFTx", "Pack", "Unpack", "FFTy", "FFTz"} {
		if !seen[name] {
			t.Errorf("backward blocking trace missing %s event", name)
		}
	}
	if seen["Transpose"] {
		t.Error("backward blocking trace has a Transpose event")
	}
}

func TestPlanTelemetryObserves(t *testing.T) {
	nx, p := 8, 2
	full := randCube(nx, nx, nx, 11)
	reg := telemetry.NewRegistry()
	w := mem.NewWorld(p)
	err := w.Run(func(c *mem.Comm) {
		g, err := layout.NewGrid(nx, nx, nx, p, c.Rank())
		if err != nil {
			panic(err)
		}
		pl, err := NewPlan(c, g, NEW, DefaultParams(g), fft.Estimate, WithTelemetry(reg))
		if err != nil {
			panic(err)
		}
		defer pl.Close()
		in := append([]complex128(nil), layout.ScatterX(full, g)...)
		if _, _, err := pl.Forward(in); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if h := s.Histograms["pfft.total_ns"]; h.Count != int64(p) {
		t.Fatalf("pfft.total_ns count = %d, want %d", h.Count, p)
	}
	if h := s.Histograms["pfft.step.wait_ns"]; h.Count != int64(p) {
		t.Fatalf("pfft.step.wait_ns count = %d, want %d", h.Count, p)
	}
	eff, ok := s.Gauges["pfft.overlap_efficiency"]
	if !ok {
		t.Fatal("overlap efficiency gauge not set")
	}
	if eff < 0 || eff > 1 {
		t.Fatalf("overlap efficiency %v out of [0,1]", eff)
	}
}

func TestBreakdownObserverNil(t *testing.T) {
	var o *BreakdownObserver
	o.Observe(Breakdown{FFTz: 1}) // must not panic
	if got := NewBreakdownObserver(nil, "pfft"); got != nil {
		t.Fatalf("nil registry must yield nil observer, got %v", got)
	}
}
