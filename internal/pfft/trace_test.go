package pfft

import (
	"strings"
	"testing"
)

// TestPlanTraceForward covers the trace recorder on the forward overlapped
// path: tracing must not change the result (planTraces checks it against
// the serial transform) and every pipeline step must appear as a
// well-formed interval. NEW's FFTz writes the post-transpose layout itself,
// so only TH records a Transpose step.
func TestPlanTraceForward(t *testing.T) {
	for _, v := range []Variant{NEW, TH} {
		traces := planTraces(t, 12, 3, v, false)

		ev := traces[0]
		if len(ev) == 0 {
			t.Fatalf("%v: no events recorded", v)
		}
		// Every pipeline step must appear, intervals must be well-formed and
		// non-decreasing in start order per append sequence.
		seen := map[string]bool{}
		for i, e := range ev {
			seen[e.Name] = true
			if e.End < e.Start {
				t.Errorf("%v: event %d (%s): end before start", v, i, e.Name)
			}
		}
		for _, name := range []string{"FFTz", "FFTy", "Pack", "Ialltoall", "Wait", "Unpack", "FFTx"} {
			if !seen[name] {
				t.Errorf("%v: missing %s event", v, name)
			}
		}
		if seen["Transpose"] != (v == TH) {
			t.Errorf("%v: Transpose event recorded: %v, want it only on TH", v, seen["Transpose"])
		}
	}
}

func TestRenderTimeline(t *testing.T) {
	events := []StepEvent{
		{Name: "FFTy", Start: 0, End: 50, Tile: 0},
		{Name: "Wait", Start: 50, End: 100, Tile: -1},
		{Name: "FFTy", Start: 100, End: 150, Tile: 1},
	}
	var sb strings.Builder
	RenderTimeline(&sb, events, 60)
	out := sb.String()
	if !strings.Contains(out, "FFTy") || !strings.Contains(out, "Wait") {
		t.Errorf("timeline missing rows:\n%s", out)
	}
	if !strings.Contains(out, "0") || !strings.Contains(out, "1") {
		t.Errorf("timeline missing tile marks:\n%s", out)
	}
	// Degenerate inputs must not panic.
	RenderTimeline(&sb, nil, 60)
	RenderTimeline(&sb, events, 5)
}
