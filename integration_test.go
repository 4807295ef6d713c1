// Package note: this file lives in the external test package so it can
// import internal/harness, which itself builds on the public offt API
// (the crossover study) — an in-package test would be an import cycle.
package offt_test

import (
	"bytes"
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"

	"offt/internal/fft"
	"offt/internal/harness"
	"offt/internal/layout"
	"offt/internal/machine"
	"offt/internal/mpi"
	"offt/internal/mpi/mem"
	"offt/internal/mpi/sim"
	"offt/internal/pfft"
	"offt/internal/tuner"
)

// TestTunedParamsRunOnRealData closes the loop across the whole stack: the
// auto-tuner searches on the simulated cluster, and the configuration it
// returns must be valid and numerically correct on the real-data engine.
func TestTunedParamsRunOnRealData(t *testing.T) {
	const p, n = 4, 32
	prm, _, err := tuner.TuneNEW(machine.UMDCluster(), p, n, 25)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	full := make([]complex128, n*n*n)
	for i := range full {
		full[i] = complex(rng.Float64(), rng.Float64())
	}
	ref := append([]complex128(nil), full...)
	fft.NewPlan3D(n, n, n, fft.Forward).Transform(ref)

	w := mem.NewWorld(p)
	outs := make([][]complex128, p)
	err = w.Run(func(c *mem.Comm) {
		g, err := layout.NewGrid(n, n, n, p, c.Rank())
		if err != nil {
			panic(err)
		}
		out, _, err := pfft.Forward3D(c, g, layout.ScatterX(full, g), pfft.NEW, prm, fft.Estimate)
		if err != nil {
			panic(err)
		}
		outs[c.Rank()] = out
	})
	if err != nil {
		t.Fatal(err)
	}
	got := layout.GatherY(outs, n, n, n, p)
	worst := 0.0
	for i := range got {
		if d := cmplx.Abs(got[i] - ref[i]); d > worst {
			worst = d
		}
	}
	if worst > 1e-8 {
		t.Errorf("tuned params on real data: max error %g", worst)
	}
}

// TestCollectiveMismatchIsDetected injects the classic SPMD bug — one rank
// issues an extra collective — and requires the simulated world to report
// a deadlock instead of hanging.
func TestCollectiveMismatchIsDetected(t *testing.T) {
	w := sim.NewWorld(machine.Laptop(), 3)
	err := w.Run(func(c *sim.Comm) {
		counts := []int{4000, 4000, 4000}
		c.Alltoallv(nil, counts, nil, counts)
		if c.Rank() == 0 {
			c.Alltoallv(nil, counts, nil, counts) // extra collective
		}
	})
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("unexpected error: %v", err)
	}
}

// TestRankFailureSurfaces injects a mid-pipeline panic on one rank and
// requires the mem world to return it as an error.
func TestRankFailureSurfaces(t *testing.T) {
	const p, n = 3, 12
	w := mem.NewWorld(p)
	err := w.Run(func(c *mem.Comm) {
		g, err := layout.NewGrid(n, n, n, p, c.Rank())
		if err != nil {
			panic(err)
		}
		if c.Rank() == 2 {
			panic("injected fault before the exchange")
		}
		slab := make([]complex128, g.InSize())
		_, _, _ = pfft.Forward3D(c, g, slab, pfft.Baseline, pfft.Params{}, fft.Estimate)
	})
	if err == nil || !strings.Contains(err.Error(), "injected fault") {
		t.Errorf("fault not surfaced: %v", err)
	}
}

// TestHarnessDeterministic runs a small experiment twice and requires
// byte-identical output: everything — simulation, tuning, random search —
// is seeded and deterministic.
func TestHarnessDeterministic(t *testing.T) {
	run := func() string {
		var buf bytes.Buffer
		r := harness.NewRunner(harness.Config{Scale: harness.ScaleSmall, Out: &buf, Seed: 3})
		e, err := harness.ByID("fig5")
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(r); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := run(), run(); a != b {
		t.Error("harness output is not deterministic")
	}
}

// TestSimAndMemAgreeOnControlFlow cross-checks the engines: the number of
// collectives each issues for the same variant and parameters must match
// (same tag sequence), which the run would otherwise break nondeterministically.
func TestSimAndMemAgreeOnControlFlow(t *testing.T) {
	const p, n = 2, 16
	g0, _ := layout.NewGrid(n, n, n, p, 0)
	prm := pfft.DefaultParams(g0)
	tl, _ := layout.NewTiling(n, prm.T)
	wantCollectives := tl.NumTiles()

	// Count on the sim engine via fabric stats: each Ialltoallv posts
	// 2(p−1) point-to-point halves per rank.
	w := sim.NewWorld(machine.Laptop(), p)
	var msgs int64
	err := w.Run(func(c *sim.Comm) {
		g, _ := layout.NewGrid(n, n, n, p, c.Rank())
		e := newCountingEngine(g, c)
		if _, err := pfft.Run(e, pfft.NEW, prm); err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			msgs = int64(e.posts)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if int(msgs) != wantCollectives {
		t.Errorf("sim engine posted %d collectives, want %d tiles", msgs, wantCollectives)
	}
}

// countingEngine wraps the cost-free path: it only counts PostTile calls
// (kernels are no-ops with zero machine costs).
type countingEngine struct {
	g     layout.Grid
	c     *sim.Comm
	posts int
	cnts  struct{ send, recv []int }
}

func newCountingEngine(g layout.Grid, c *sim.Comm) *countingEngine {
	e := &countingEngine{g: g, c: c}
	e.cnts.send = make([]int, g.P)
	e.cnts.recv = make([]int, g.P)
	return e
}

func (e *countingEngine) Grid() layout.Grid { return e.g }
func (e *countingEngine) Comm() mpi.Comm    { return e.c }

func (e *countingEngine) FFTz()                               {}
func (e *countingEngine) Transpose(pfft.Variant)              {}
func (e *countingEngine) FFTySub(a, b, c2, d, f int)          {}
func (e *countingEngine) PackSub(slot, a, b, c2, d, f, h int) {}
func (e *countingEngine) PostTile(slot int, ztl int) mpi.Request {
	e.posts++
	e.g.SendCounts(ztl, e.cnts.send)
	e.g.RecvCounts(ztl, e.cnts.recv)
	return e.c.Ialltoallv(nil, e.cnts.send, nil, e.cnts.recv)
}
func (e *countingEngine) UnpackSub(slot, a, b, c2, d, f, h int) {}
func (e *countingEngine) FFTxSub(a, b, c2, d, f int)            {}
