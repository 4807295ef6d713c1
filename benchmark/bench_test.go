package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestQuantile(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7} // sorted 1 3 5 7 9
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 3}, {0.5, 5}, {0.9, 8.2}, {1, 9}} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 9 {
		t.Error("quantile reordered its input")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing is not NaN")
	}
}

// The expected spreads are what Python gives:
//
//	q = statistics.quantiles(v, n=4); (q[2] - q[0]) / statistics.median(v)
func TestQuartileSpreadMatchesPython(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5 / 5.5},
		{[]float64{5.61, 5.82, 6.08, 5.90, 5.98, 6.10}, (6.085 - 5.7675) / 5.94},
		{[]float64{2, 1}, 1.5 / 1.5}, // the quartiles of two points extrapolate to 0.75 and 2.25
		{[]float64{4, 4, 4}, 0},
	} {
		if got := quartileSpread(c.v); !near(got, c.want) {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "op", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 40, parent: 0},
		{name: "b", start: 30, end: 60, parent: 0},   // overlaps a: union 10..60
		{name: "c", start: 90, end: 120, parent: 0},  // clipped to the parent: 90..100
		{name: "a1", start: 10, end: 25, parent: 1},  // child of a
		{name: "x", start: 200, end: 210, parent: 0}, // wholly outside the parent
	}
	self := selfTimes(spans)
	for i, want := range []int64{40, 15, 30, 30, 15, 10} {
		if self[i] != want {
			t.Errorf("self time of %s = %d, want %d", spans[i].name, self[i], want)
		}
	}
	if got := closure(spans, self, "op"); !near(got, 0.6) {
		t.Errorf("closure = %v, want 0.6", got)
	}
}

func TestPerOpAveragesOverOps(t *testing.T) {
	spans := []span{
		{name: "k", start: 0, end: 10, parent: -1, op: 0},
		{name: "k", start: 10, end: 30, parent: -1, op: 0},
		{name: "k", start: 50, end: 60, parent: -1, op: 1},
		{name: "other", start: 0, end: 1000, parent: -1, op: 2},
	}
	if got := perOp(spans, selfTimes(spans), "k", true); !near(got, 20) {
		t.Errorf("perOp = %v, want 20 (ops 0 and 1 sum to 30 and 10)", got)
	}
}

func TestReferenceChecksum(t *testing.T) {
	if got, ok := refSelfCheck(); !ok {
		t.Fatalf("reference kernel checksum %#x, want %#x", got, refChecksum)
	}
	// The kernel is unitary: running it must not change the array's norm.
	k := newRefKernel(2)
	defer k.close()
	norm := func() float64 {
		var s float64
		for _, c := range k.threads[1].a {
			s += abs2(c)
		}
		return s
	}
	before := norm()
	for i := 0; i < 20; i++ {
		k.run()
	}
	if after := norm(); math.Abs(after-before) > 1e-9*before {
		t.Errorf("norm went from %v to %v over 20 kernel calls", before, after)
	}
}

func TestVerificationCatchesAWrongResult(t *testing.T) {
	in := seededCube(64, 7)
	back := make([]complex128, len(in))
	for i, v := range in {
		back[i] = v * 64
	}
	if err := checkRoundTrip(back, in, 64); err != nil {
		t.Fatalf("exact round trip rejected: %v", err)
	}
	back[5] += 1e-6
	if err := checkRoundTrip(back, in, 64); err == nil {
		t.Error("a 1e-6 error passed the 1e-9 check")
	}
	back[5] = complex(math.NaN(), 0)
	if err := checkRoundTrip(back, in, 64); err == nil {
		t.Error("a NaN passed the check")
	}
}

// BENCHMARK.json repeats the names, units and bounds this package
// reports; the driver refuses a run whose result line disagrees with it.
func TestContractMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the code has %q", i, doc.Workloads[i].Name, w.name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d here", len(doc.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := doc.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != "lower" || got.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the code has %s [%s] bound %v", i, got, d.name, d.unit, d.bound)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d here", len(doc.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := doc.PerLayer[i]; got.Name != d.name || got.Unit != d.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the code has %s [%s]", i, got, d.name, d.unit)
		}
	}
}

// One verified 0.2 s window of every workload, untraced, then one traced
// op whose spans must account for the op.
func TestEveryWorkloadRunsVerified(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			ref := newRefKernel(w.refThreads())
			defer ref.close()
			inst, err := w.open(42)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := inst.close(); err != nil {
					t.Errorf("close: %v", err)
				}
			}()
			win := runWindow(inst, ref, w.refCalls, 1, 200*time.Millisecond, nil)
			if win.failed > 0 || win.attempted < 1 {
				t.Fatalf("%d of %d ops failed: %v", win.failed, win.attempted, win.firstErr)
			}
			if x := win.xRef(); !(x > 0) || math.IsInf(x, 0) {
				t.Errorf("op_x_ref = %v", x)
			}
			if len(win.refNs) != w.refCalls*win.attempted {
				t.Errorf("%d reference calls for %d ops, want %d per op", len(win.refNs), win.attempted, w.refCalls)
			}
			tr := newTracer()
			traced := runWindow(inst, ref, w.refCalls, 0, 0, tr)
			if traced.failed > 0 || traced.attempted != 1 {
				t.Fatalf("traced op: %d of %d failed: %v", traced.failed, traced.attempted, traced.firstErr)
			}
			if c := closure(tr.spans, selfTimes(tr.spans), "op"); !(c > 0.5 && c <= 1) {
				t.Errorf("the traced op's children cover %.3f of it", c)
			}
			if v, err := inst.virtMs(); err != nil || !(v > 0) {
				t.Errorf("virtual time %v, %v", v, err)
			}
		})
	}
}
