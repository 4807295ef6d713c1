package pencil

import (
	"fmt"
	"testing"
	"time"

	"offt/internal/fft"
	"offt/internal/machine"
	"offt/internal/mpi/fault"
	"offt/internal/mpi/mem"
	"offt/internal/mpi/transport"
	"offt/internal/pfft"
)

// runPlan scatters full, runs one (or more) Forward executions through a
// reusable Plan on every rank, and gathers the result. A zero prm means the
// default parameters.
func runPlan(t *testing.T, full []complex128, nx, ny, nz, pr, pc int, v pfft.Variant, prm Params2D, execs int, wopts ...transport.Option) ([]complex128, []pfft.Breakdown) {
	t.Helper()
	p := pr * pc
	w := mem.NewWorld(p, wopts...)
	outs := make([][]complex128, p)
	bds := make([]pfft.Breakdown, p)
	err := w.Run(func(c *mem.Comm) {
		g, err := NewGrid2D(nx, ny, nz, pr, pc, c.Rank())
		if err != nil {
			panic(err)
		}
		pl, err := NewPlan(c, g, v, prm, fft.Estimate)
		if err != nil {
			panic(err)
		}
		defer pl.Close()
		slab := make([]complex128, g.InSize())
		var out []complex128
		var b pfft.Breakdown
		for e := 0; e < execs; e++ {
			ScatterPencilInto(slab, full, g)
			out, b, err = pl.Forward(slab)
			if err != nil {
				panic(err)
			}
		}
		outs[c.Rank()] = append([]complex128(nil), out...)
		bds[c.Rank()] = b
	})
	if err != nil {
		t.Fatalf("world failed: %v", err)
	}
	return GatherPencil(outs, nx, ny, nz, pr, pc), bds
}

// TestPlanMatchesForward3D: the reusable pipelined Plan must produce
// bit-identical spectra to the one-shot blocking Forward3D on every
// variant, including mixed-radix, prime and non-cubic grids with uneven
// pencil distributions.
func TestPlanMatchesForward3D(t *testing.T) {
	cases := []struct {
		nx, ny, nz, pr, pc int
	}{
		{16, 16, 16, 2, 2},
		{12, 10, 8, 2, 3}, // mixed radix, uneven y split
		{7, 7, 7, 2, 3},   // prime lines, uneven everywhere
		{8, 12, 4, 3, 2},  // non-cubic
	}
	for _, tc := range cases {
		for _, v := range []pfft.Variant{pfft.Baseline, pfft.NEW, pfft.NEW0} {
			name := fmt.Sprintf("%dx%dx%d_%dx%d_%v", tc.nx, tc.ny, tc.nz, tc.pr, tc.pc, v)
			t.Run(name, func(t *testing.T) {
				full := randCube(tc.nx*tc.ny*tc.nz, 11)
				want := runPencil(t, full, tc.nx, tc.ny, tc.nz, tc.pr, tc.pc)
				got, _ := runPlan(t, full, tc.nx, tc.ny, tc.nz, tc.pr, tc.pc, v, Params2D{}, 2)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("element %d: plan %v != Forward3D %v", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestPlanBackwardRoundTrip: Backward(Forward(x)) must equal Nx·Ny·Nz · x
// for all variants (the backward path is shared), on awkward grids too.
func TestPlanBackwardRoundTrip(t *testing.T) {
	cases := []struct {
		nx, ny, nz, pr, pc int
	}{
		{16, 16, 16, 2, 2},
		{12, 10, 8, 2, 3},
		{7, 7, 7, 2, 3},
		{8, 12, 4, 3, 2},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%dx%dx%d_%dx%d", tc.nx, tc.ny, tc.nz, tc.pr, tc.pc), func(t *testing.T) {
			nx, ny, nz, pr, pc := tc.nx, tc.ny, tc.nz, tc.pr, tc.pc
			full := randCube(nx*ny*nz, 23)
			p := pr * pc
			w := mem.NewWorld(p)
			res := make([]complex128, nx*ny*nz)
			err := w.Run(func(c *mem.Comm) {
				g, err := NewGrid2D(nx, ny, nz, pr, pc, c.Rank())
				if err != nil {
					panic(err)
				}
				pl, err := NewPlan(c, g, pfft.NEW, Params2D{}, fft.Estimate)
				if err != nil {
					panic(err)
				}
				defer pl.Close()
				slab := make([]complex128, g.InSize())
				ScatterPencilInto(slab, full, g)
				out, _, err := pl.Forward(slab)
				if err != nil {
					panic(err)
				}
				spec := append([]complex128(nil), out...)
				back, _, err := pl.Backward(spec)
				if err != nil {
					panic(err)
				}
				c.Barrier()
				GatherInputInto(res, back, g) // disjoint rank regions
			})
			if err != nil {
				t.Fatalf("world failed: %v", err)
			}
			scale := complex(float64(nx*ny*nz), 0)
			want := make([]complex128, len(full))
			for i := range full {
				want[i] = full[i] * scale
			}
			if e := maxErr(want, res); e > 1e-9 {
				t.Fatalf("round-trip error %g", e)
			}
		})
	}
}

// TestPlanDegradesUnderFaults: with an aggressively short soft wait
// deadline and an injected fault mix, the pipeline must downgrade (at
// least once, on some rank) and still produce the exact blocking-path
// spectrum.
func TestPlanDegradesUnderFaults(t *testing.T) {
	const nx, ny, nz, pr, pc = 16, 16, 16, 2, 2
	full := randCube(nx*ny*nz, 31)
	want := runPencil(t, full, nx, ny, nz, pr, pc)
	fp, err := fault.NewPlan(7, fault.ProfileDrop, pr*pc)
	if err != nil {
		t.Fatal(err)
	}
	got, bds := runPlan(t, full, nx, ny, nz, pr, pc, pfft.NEW, Params2D{}, 1,
		transport.WithFaults(fp), transport.WithDeadline(time.Nanosecond))
	var dg int64
	for _, b := range bds {
		dg += b.Downgrades
	}
	if dg == 0 {
		t.Fatalf("expected at least one overlapped→blocking downgrade under a 1ns deadline")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d after downgrade: %v != %v", i, got[i], want[i])
		}
	}
}

// TestPlanStandaloneBackward3D: the standalone helper must invert
// Forward3D.
func TestPlanStandaloneBackward3D(t *testing.T) {
	const nx, ny, nz, pr, pc = 8, 12, 4, 2, 2
	full := randCube(nx*ny*nz, 5)
	p := pr * pc
	w := mem.NewWorld(p)
	res := make([]complex128, nx*ny*nz)
	err := w.Run(func(c *mem.Comm) {
		g, err := NewGrid2D(nx, ny, nz, pr, pc, c.Rank())
		if err != nil {
			panic(err)
		}
		out, err := Forward3D(c, g, ScatterPencil(full, g), fft.Estimate)
		if err != nil {
			panic(err)
		}
		back, err := Backward3D(c, g, out, fft.Estimate)
		if err != nil {
			panic(err)
		}
		c.Barrier()
		GatherInputInto(res, back, g)
	})
	if err != nil {
		t.Fatalf("world failed: %v", err)
	}
	scale := complex(float64(nx*ny*nz), 0)
	want := make([]complex128, len(full))
	for i := range full {
		want[i] = full[i] * scale
	}
	if e := maxErr(want, res); e > 1e-9 {
		t.Fatalf("round-trip error %g", e)
	}
}

// TestPencilFullInPlaceSkewed holds the ordering that lets ForwardFull and
// BackwardFull run with dst == src, where every rank writes the array its
// peers read from (see offt.Plan's runJob): a rank reads src only before
// its first post and writes dst only after its last Wait, and that Wait
// needs a tile from a column peer that has finished phase A, so every rank
// of its row has read src by then. The ranks start each call staggered by
// 3 ms, in rank order and in reverse, and then on a world whose blocks
// arrive 0.2 ms late. Each run must give the bits of distinct arrays.
func TestPencilFullInPlaceSkewed(t *testing.T) {
	const nx, ny, nz, pr, pc = 12, 10, 8, 2, 3
	wantF, wantB := fullBits(t, nx, ny, nz, pr, pc, false, nil)
	late := machine.Laptop()
	late.Net.LatencyIntraNs, late.Net.LatencyInterNs = 200_000, 200_000
	stagger := func(slot func(rank int) int) func(int) {
		return func(rank int) { time.Sleep(time.Duration(slot(rank)) * 3 * time.Millisecond) }
	}
	for _, c := range []struct {
		name string
		skew func(rank int)
		opts []transport.Option
	}{
		{"rank-order", stagger(func(r int) int { return r }), nil},
		{"reverse", stagger(func(r int) int { return pr*pc - 1 - r }), nil},
		{"delayed", nil, []transport.Option{mem.WithDelay(late)}},
	} {
		t.Run(c.name, func(t *testing.T) {
			fwd, bwd := fullBits(t, nx, ny, nz, pr, pc, true, c.skew, c.opts...)
			if fwd != wantF || bwd != wantB {
				t.Errorf("in place: bits %#x/%#x, distinct arrays %#x/%#x", fwd, bwd, wantF, wantB)
			}
		})
	}
}

// fullBits runs ForwardFull on one random cube and BackwardFull on another,
// on one NEW plan per rank of a mem world built with opts, and hashes the
// two full results. inPlace hands each call its input as dst; skew, when
// non-nil, runs on every rank before each call.
func fullBits(t *testing.T, nx, ny, nz, pr, pc int, inPlace bool, skew func(rank int), opts ...transport.Option) (fwd, bwd uint64) {
	t.Helper()
	srcF, srcB := randCube(nx*ny*nz, 61), randCube(nx*ny*nz, 63)
	dstF, dstB := make([]complex128, len(srcF)), make([]complex128, len(srcB))
	if inPlace {
		copy(dstF, srcF)
		copy(dstB, srcB)
		srcF, srcB = dstF, dstB
	}
	err := mem.NewWorld(pr*pc, opts...).Run(func(c *mem.Comm) {
		g, err := NewGrid2D(nx, ny, nz, pr, pc, c.Rank())
		if err != nil {
			panic(err)
		}
		plan, err := NewPlan(c, g, pfft.NEW, Params2D{}, fft.Estimate)
		if err != nil {
			panic(err)
		}
		defer plan.Close()
		if skew != nil {
			skew(c.Rank())
		}
		if _, _, _, err := plan.ForwardFull(dstF, srcF); err != nil {
			panic(err)
		}
		if skew != nil {
			skew(c.Rank())
		}
		if _, _, _, err := plan.BackwardFull(dstB, srcB); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return hashBits([][]complex128{dstF}), hashBits([][]complex128{dstB})
}
