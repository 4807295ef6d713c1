package pfft

import (
	"fmt"
	"math/rand"
	"testing"

	"offt/internal/fft"
	"offt/internal/layout"
	"offt/internal/mpi"
	"offt/internal/mpi/mem"
)

const reuseTol = 1e-12

// runWithPlan executes `iters` forward transforms of full over p ranks on
// ONE plan per rank and returns the reassembled result of the last one.
func runWithPlan(t *testing.T, full []complex128, nx, ny, nz, p, iters int, v Variant, prm Params, opts ...PlanOpt) []complex128 {
	t.Helper()
	w := mem.NewWorld(p)
	outs := make([][]complex128, p)
	err := w.Run(func(c *mem.Comm) {
		g, err := layout.NewGrid(nx, ny, nz, p, c.Rank())
		if err != nil {
			panic(err)
		}
		plan, err := NewPlan(c, g, v, prm, fft.Estimate, opts...)
		if err != nil {
			panic(err)
		}
		defer plan.Close()
		slab := layout.ScatterX(full, g) // read, not consumed, by every Forward
		var out []complex128
		for it := 0; it < iters; it++ {
			out, _, err = plan.Forward(slab)
			if err != nil {
				panic(err)
			}
		}
		outs[c.Rank()] = out
	})
	if err != nil {
		t.Fatalf("world failed: %v", err)
	}
	return layout.GatherY(outs, nx, ny, nz, p)
}

// TestPlanReuseMatchesFresh: executing the same transform repeatedly on
// one plan must match the fresh-engine-per-call path bit-for-bit (both
// run identical arithmetic), and certainly to 1e-12.
func TestPlanReuseMatchesFresh(t *testing.T) {
	for _, c := range []struct{ nx, ny, nz, p int }{
		{16, 16, 16, 4},
		{12, 8, 10, 2}, // rectangular
		{9, 10, 8, 3},  // non-divisible
	} {
		full := randCube(c.nx, c.ny, c.nz, 21)
		g0, err := layout.NewGrid(c.nx, c.ny, c.nz, c.p, 0)
		if err != nil {
			t.Fatal(err)
		}
		prm := DefaultParams(g0)
		fresh := runDistributed(t, full, c.nx, c.ny, c.nz, c.p, NEW, prm, THParams{})
		reused := runWithPlan(t, full, c.nx, c.ny, c.nz, c.p, 3, NEW, prm)
		if e := maxErr(fresh, reused); e > reuseTol {
			t.Errorf("%dx%dx%d p=%d: reuse drifts from fresh path by %g", c.nx, c.ny, c.nz, c.p, e)
		}
	}
}

// TestPlanForwardBackwardRoundTrip: back-to-back Forward/Backward on one
// plan reproduces the input (×N³) across repeated executions.
func TestPlanForwardBackwardRoundTrip(t *testing.T) {
	nx, ny, nz, p := 16, 16, 12, 4
	full := randCube(nx, ny, nz, 5)
	w := mem.NewWorld(p)
	outs := make([][]complex128, p)
	err := w.Run(func(c *mem.Comm) {
		g, err := layout.NewGrid(nx, ny, nz, p, c.Rank())
		if err != nil {
			panic(err)
		}
		plan, err := NewPlan(c, g, NEW, DefaultParams(g), fft.Estimate)
		if err != nil {
			panic(err)
		}
		defer plan.Close()
		slab := layout.ScatterX(full, g)
		bslab := make([]complex128, g.OutSize())
		var back []complex128
		for it := 0; it < 2; it++ {
			spec, _, err := plan.Forward(slab)
			if err != nil {
				panic(err)
			}
			copy(bslab, spec) // Forward's output is plan-owned until the next execution
			back, _, err = plan.Backward(bslab)
			if err != nil {
				panic(err)
			}
		}
		outs[c.Rank()] = back
	})
	if err != nil {
		t.Fatalf("world failed: %v", err)
	}
	got := layout.GatherX(outs, nx, ny, nz, p)
	scale := complex(float64(nx*ny*nz), 0)
	for i := range got {
		got[i] /= scale
	}
	if e := maxErr(got, full); e > tol {
		t.Errorf("round trip error %g", e)
	}
}

// TestPlanParallelWorkers: the worker-pool kernels must agree with the
// serial path exactly (run under -race in verify.sh).
func TestPlanParallelWorkers(t *testing.T) {
	for _, c := range []struct{ nx, ny, nz, p int }{
		{16, 16, 16, 2},
		{12, 10, 14, 2}, // uneven splits
	} {
		full := randCube(c.nx, c.ny, c.nz, 33)
		g0, err := layout.NewGrid(c.nx, c.ny, c.nz, c.p, 0)
		if err != nil {
			t.Fatal(err)
		}
		prm := DefaultParams(g0)
		serial := runWithPlan(t, full, c.nx, c.ny, c.nz, c.p, 1, NEW, prm)
		par := runWithPlan(t, full, c.nx, c.ny, c.nz, c.p, 2, NEW, prm, WithWorkers(4))
		if e := maxErr(serial, par); e > reuseTol {
			t.Errorf("%dx%dx%d p=%d: parallel kernels drift from serial by %g", c.nx, c.ny, c.nz, c.p, e)
		}
	}
}

// selfComm is a zero-allocation single-rank communicator: the all-to-all
// is a direct copy and the request is a shared sentinel. It isolates the
// plan's own allocation behavior from the mem transport (whose envelopes
// allocate by design).
type selfComm struct {
	now int64
	req selfReq
	ex  mpi.Exchange
}

type selfReq struct{}

func (c *selfComm) Rank() int  { return 0 }
func (c *selfComm) Size() int  { return 1 }
func (c *selfComm) Now() int64 { c.now++; return c.now }
func (c *selfComm) Barrier()   {}
func (c *selfComm) Alltoallv(send []complex128, sendCounts []int, recv []complex128, recvCounts []int) {
	copy(recv[:recvCounts[0]], send[:sendCounts[0]])
}
func (c *selfComm) Ialltoallv(send []complex128, sendCounts []int, recv []complex128, recvCounts []int) mpi.Request {
	copy(recv[:recvCounts[0]], send[:sendCounts[0]])
	return &c.req
}
func (c *selfComm) Test(reqs ...mpi.Request) bool { return true }
func (c *selfComm) Wait(reqs ...mpi.Request)      {}

// SetExchange records the selected schedule (mpi.ExchangeSetter), so the
// allocation gates below exercise the schedule-selection path the real
// engines take — a single rank routes every schedule identically.
func (c *selfComm) SetExchange(ex mpi.Exchange) { c.ex = ex }

// TestPlanSteadyStateAllocs is the allocation gate: once a plan exists,
// repeated Forward executions must be allocation-free — under
// every exchange schedule, so the schedule-selection plumbing cannot
// sneak per-run allocations in. The single-rank selfComm keeps transport
// envelopes out of the measurement; verify.sh runs this test as the
// regression gate.
func TestPlanSteadyStateAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race-instrumented runtime allocates on its own")
	}
	for _, alg := range mpi.CommAlgs() {
		t.Run(alg.String(), func(t *testing.T) {
			n := 16
			g, err := layout.NewGrid(n, n, n, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			c := &selfComm{}
			prm := DefaultParams(g)
			prm.Comm = alg
			plan, err := NewPlan(c, g, NEW, prm, fft.Estimate)
			if err != nil {
				t.Fatal(err)
			}
			defer plan.Close()
			slab := make([]complex128, g.InSize())
			rng := rand.New(rand.NewSource(9))
			for i := range slab {
				slab[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
			}
			fill := append([]complex128(nil), slab...)
			// Warm up once (lazy growth, request-window sizing).
			if _, _, err := plan.Forward(slab); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				copy(slab, fill)
				if _, _, err := plan.Forward(slab); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 0 {
				t.Errorf("steady-state Forward allocates %.1f objects/op, want 0", allocs)
			}
			if c.ex.Alg != alg {
				t.Errorf("plan applied schedule %v, want %v", c.ex.Alg, alg)
			}
		})
	}
}

// TestPlanBackwardSteadyStateAllocs applies the same gate to Backward.
func TestPlanBackwardSteadyStateAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race-instrumented runtime allocates on its own")
	}
	for _, alg := range mpi.CommAlgs() {
		t.Run(alg.String(), func(t *testing.T) {
			n := 16
			g, err := layout.NewGrid(n, n, n, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			c := &selfComm{}
			prm := DefaultParams(g)
			prm.Comm = alg
			plan, err := NewPlan(c, g, NEW, prm, fft.Estimate)
			if err != nil {
				t.Fatal(err)
			}
			defer plan.Close()
			bslab := make([]complex128, g.OutSize())
			if _, _, err := plan.Backward(bslab); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, _, err := plan.Backward(bslab); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 0 {
				t.Errorf("steady-state Backward allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}

// TestPlanRejectsInvalid covers plan-time validation.
func TestPlanRejectsInvalid(t *testing.T) {
	g, err := layout.NewGrid(8, 8, 8, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := &selfComm{}
	if _, err := NewPlan(c, g, NEW, Params{T: 0}, fft.Estimate); err == nil {
		t.Error("expected validation error for T=0")
	}
	plan, err := NewPlan(c, g, TH, Params{T: 8, W: 1, Fy: 1}, fft.Estimate)
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Close()
	if _, _, err := plan.Backward(make([]complex128, g.OutSize())); err == nil {
		t.Error("expected Backward rejection for TH plan")
	}
	plan.Close()
	if _, _, err := plan.Forward(make([]complex128, g.InSize())); err == nil {
		t.Error("expected error on closed plan")
	}
}

// TestPlanDirectionsShareWork: a plan's forward and backward engines share
// one post-transpose slab, so one plan alternating directions, on slabs and
// on full arrays, must compute bit for bit what a fresh plan per call does.
func TestPlanDirectionsShareWork(t *testing.T) {
	for _, c := range []struct {
		nx, ny, nz, p int
		v             Variant
	}{
		{16, 16, 16, 2, NEW},     // several tiles in flight
		{12, 10, 9, 3, Baseline}, // standard layout, ragged
	} {
		x1, x2 := randCube(c.nx, c.ny, c.nz, 51), randCube(c.nx, c.ny, c.nz, 52)
		y1, y2 := randCube(c.nx, c.ny, c.nz, 53), randCube(c.nx, c.ny, c.nz, 54)
		steps := []dirStep{
			{false, false, x1}, {true, false, y1}, {false, false, x2},
			{false, true, x2}, {true, true, y2}, {false, true, x1}, {true, false, y1},
		}
		shared := runDirSteps(t, c.nx, c.ny, c.nz, c.p, c.v, steps, true)
		fresh := runDirSteps(t, c.nx, c.ny, c.nz, c.p, c.v, steps, false)
		for i := range steps {
			name := fmt.Sprintf("%dx%dx%d-p%d %v step %d (backward=%v full=%v)",
				c.nx, c.ny, c.nz, c.p, c.v, i, steps[i].backward, steps[i].full)
			for j := range fresh[i] {
				if shared[i][j] != fresh[i][j] {
					t.Fatalf("%s: element %d is %v on one plan, %v on a fresh one", name, j, shared[i][j], fresh[i][j])
				}
			}
		}
	}
}

// dirStep is one execution: Backward or Forward, on the rank's slab of in
// or (full) on in itself with the *Full entry points.
type dirStep struct {
	backward, full bool
	in             []complex128
}

// runDirSteps runs steps over p ranks, on one plan per rank when shared and
// on a fresh plan per step otherwise, and returns each step's result: the
// full destination array, or the ranks' output slabs in rank order.
func runDirSteps(t *testing.T, nx, ny, nz, p int, v Variant, steps []dirStep, shared bool) [][]complex128 {
	t.Helper()
	res := make([][]complex128, len(steps))
	slabs := make([][][]complex128, len(steps))
	for i, s := range steps {
		if s.full {
			res[i] = make([]complex128, nx*ny*nz)
		}
		slabs[i] = make([][]complex128, p)
	}
	err := mem.NewWorld(p).Run(func(c *mem.Comm) {
		g, err := layout.NewGrid(nx, ny, nz, p, c.Rank())
		if err != nil {
			panic(err)
		}
		var plan *Plan
		for i, s := range steps {
			if plan == nil || !shared {
				if plan != nil {
					plan.Close()
				}
				if plan, err = NewPlan(c, g, v, DefaultParams(g), fft.Estimate); err != nil {
					panic(err)
				}
			}
			var out []complex128
			switch {
			case s.full && s.backward:
				_, _, _, err = plan.BackwardFull(res[i], s.in)
			case s.full:
				_, _, _, err = plan.ForwardFull(res[i], s.in)
			case s.backward:
				out, _, err = plan.Backward(layout.ScatterY(s.in, g))
			default:
				out, _, err = plan.Forward(layout.ScatterX(s.in, g))
			}
			if err != nil {
				panic(err)
			}
			slabs[i][c.Rank()] = append([]complex128(nil), out...)
		}
		plan.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range steps {
		if !s.full {
			for _, slab := range slabs[i] {
				res[i] = append(res[i], slab...)
			}
		}
	}
	return res
}
