package pfft

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"offt/internal/fft"
	"offt/internal/layout"
	"offt/internal/machine"
	"offt/internal/mpi/mem"
	"offt/internal/mpi/transport"
)

// TestSlabBitsPinned runs one Forward and one Backward per plan on a mem
// world and compares FNV-64a hashes of the output bits with the ones
// recorded on the tree whose slab path ran FFTz and the local transpose as
// two passes. Every variant computes the same bits, serial and with a
// worker pool alike, so one forward and one backward hash cover a grid. The
// grids cover Nx == Ny, a ragged grid, a z length that takes the Bluestein
// path (37) and a single rank.
func TestSlabBitsPinned(t *testing.T) {
	grids := []struct {
		nx, ny, nz, p int
		fwd, bwd      uint64
	}{
		{64, 64, 64, 2, 0x688958c63c7fe09b, 0x3227f16014061710},
		{12, 10, 9, 3, 0xa50c664d3acc803c, 0xc08afa64d45f5d3f},
		{8, 8, 37, 2, 0xf03fb21a6262185a, 0x1104d8b00c5f4278},
		{8, 8, 6, 1, 0x57723cc00b7c2b25, 0xbe057a6f9f091f8c},
	}
	for _, v := range []Variant{NEW, NEW0, Baseline, TH, TH0} {
		for _, gr := range grids {
			for _, workers := range []int{1, 2} {
				name := fmt.Sprintf("%v/%dx%dx%d-p%d/w%d", v, gr.nx, gr.ny, gr.nz, gr.p, workers)
				t.Run(name, func(t *testing.T) {
					fwd, bwd := planBits(t, gr.nx, gr.ny, gr.nz, gr.p, v, workers)
					if fwd != gr.fwd {
						t.Errorf("forward bits %#x, want %#x", fwd, gr.fwd)
					}
					if v != TH && v != TH0 && bwd != gr.bwd {
						t.Errorf("backward bits %#x, want %#x", bwd, gr.bwd)
					}
				})
			}
		}
	}
}

// TestFullBitsPinned holds ForwardFull's and BackwardFull's full-array
// output bits, the path offt.Plan's ranks run, to hashes recorded while the
// ranks corner-turned their whole y-slab between the caller's array and a
// plan-owned one. Every variant computes the same bits, so one forward and
// one backward hash cover a grid: 12×10×9 on three ranks has a ragged y
// split, fewer y rows per rank than four workers, and Nx = 37 takes FFTx
// through the Bluestein path. dst == src must give the bits of distinct
// arrays.
func TestFullBitsPinned(t *testing.T) {
	grids := []struct {
		nx, ny, nz, p int
		fwd, bwd      uint64
	}{
		{64, 64, 64, 2, 0x98eb1cc38921aa7a, 0xeda5062f73753eff},
		{12, 10, 9, 3, 0x9132c50eaa465757, 0xadf4e5ed95dae0a3},
		{37, 8, 6, 2, 0xbd5e06fa07861d17, 0xa6f778878f0752a8},
	}
	for _, v := range []Variant{NEW, NEW0, Baseline, TH} {
		for _, gr := range grids {
			for _, workers := range []int{1, 2, 4} {
				for _, inPlace := range []bool{false, true} {
					name := fmt.Sprintf("%v/%dx%dx%d-p%d/w%d/inplace=%v", v, gr.nx, gr.ny, gr.nz, gr.p, workers, inPlace)
					t.Run(name, func(t *testing.T) {
						fwd, bwd := fullBits(t, gr.nx, gr.ny, gr.nz, gr.p, v, workers, inPlace, nil)
						if fwd != gr.fwd {
							t.Errorf("forward bits %#x, want %#x", fwd, gr.fwd)
						}
						if v != TH && bwd != gr.bwd {
							t.Errorf("backward bits %#x, want %#x", bwd, gr.bwd)
						}
					})
				}
			}
		}
	}
}

// TestFullInPlaceSkewed holds the ordering that lets ForwardFull and
// BackwardFull run with dst == src, where every rank writes the array its
// peers read from (see offt.Plan's runJob): forward writes dst from the
// first FFTx on, backward reads src up to the last FFTx⁻¹. The ranks start
// each call staggered by 3 ms, in rank order and in reverse, and then on a
// world whose blocks arrive 0.2 ms late. Each run must give the bits of
// distinct arrays.
func TestFullInPlaceSkewed(t *testing.T) {
	const nx, ny, nz, p = 12, 10, 9, 3
	wantF, wantB := fullBits(t, nx, ny, nz, p, NEW, 1, false, nil)
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
		{"reverse", stagger(func(r int) int { return p - 1 - r }), nil},
		{"delayed", nil, []transport.Option{mem.WithDelay(late)}},
	} {
		t.Run(c.name, func(t *testing.T) {
			fwd, bwd := fullBits(t, nx, ny, nz, p, NEW, 1, true, c.skew, c.opts...)
			if fwd != wantF || bwd != wantB {
				t.Errorf("in place: bits %#x/%#x, distinct arrays %#x/%#x", fwd, bwd, wantF, wantB)
			}
		})
	}
}

// fullBits runs ForwardFull on one random cube and, unless v is
// forward-only, BackwardFull on another, on one plan per rank of a p-rank
// mem world built with opts, and hashes the two full results. inPlace hands
// each call its input as dst; skew, when non-nil, runs on every rank before
// each call.
func fullBits(t *testing.T, nx, ny, nz, p int, v Variant, workers int, inPlace bool, skew func(rank int), opts ...transport.Option) (fwd, bwd uint64) {
	t.Helper()
	backward := v != TH && v != TH0
	srcF, srcB := randCube(nx, ny, nz, 61), randCube(nx, ny, nz, 63)
	dstF, dstB := make([]complex128, len(srcF)), make([]complex128, len(srcB))
	if inPlace {
		copy(dstF, srcF)
		copy(dstB, srcB)
		srcF, srcB = dstF, dstB
	}
	err := mem.NewWorld(p, opts...).Run(func(c *mem.Comm) {
		g, err := layout.NewGrid(nx, ny, nz, p, c.Rank())
		if err != nil {
			panic(err)
		}
		plan, err := NewPlan(c, g, v, DefaultParams(g), fft.Estimate, WithWorkers(workers))
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
		if backward {
			if skew != nil {
				skew(c.Rank())
			}
			if _, _, _, err := plan.BackwardFull(dstB, srcB); err != nil {
				panic(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return hashBits([][]complex128{dstF}), hashBits([][]complex128{dstB})
}

// TestFusedFFTzWorkerRows: the fused FFTz splits its XC·Ny rows across
// workers, so a chunk may start and end inside an x-plane and a rank may
// hold fewer x-planes than workers. Four workers must give the serial bits.
func TestFusedFFTzWorkerRows(t *testing.T) {
	for _, v := range []Variant{NEW, Baseline} {
		for _, gr := range []struct{ nx, ny, nz, p int }{
			{16, 16, 16, 8}, // XC = 2 < 4 workers: chunks of 8 rows, half a plane
			{12, 10, 9, 2},  // XC = 6: chunks of 15 rows, two end mid-plane
		} {
			fwd1, bwd1 := planBits(t, gr.nx, gr.ny, gr.nz, gr.p, v, 1)
			fwd4, bwd4 := planBits(t, gr.nx, gr.ny, gr.nz, gr.p, v, 4)
			if fwd1 != fwd4 || bwd1 != bwd4 {
				t.Errorf("%v %dx%dx%d p=%d: four workers %#x/%#x, serial %#x/%#x",
					v, gr.nx, gr.ny, gr.nz, gr.p, fwd4, bwd4, fwd1, bwd1)
			}
		}
	}
}

// TestRunManyBitsPinned holds RunMany's real-engine output bits, one
// FNV-64a hash per array over its y-slabs in rank order, serial and with
// two workers. The window changes when arrays are exchanged, never their
// bits, so both 16³ rows share their first three hashes.
func TestRunManyBitsPinned(t *testing.T) {
	for _, cfg := range []struct {
		n, p, window int
		want         []uint64 // one per array
	}{
		{12, 3, 2, []uint64{0xb5ebb0a120c2dff2, 0xa82a00afd7e099e1, 0xfc311b6916b39cae, 0xd67df30894056320}},
		{16, 2, 1, []uint64{0xad49727187679141, 0xec60358d9d32dac3, 0xf061df0b814ffa60}},
		{16, 2, 3, []uint64{0xad49727187679141, 0xec60358d9d32dac3, 0xf061df0b814ffa60, 0x61bc11a573fbf53d, 0x95a8cec396472dd0}},
	} {
		for _, workers := range []int{1, 2} {
			name := fmt.Sprintf("%d^3-p%d/m%d-w%d/workers%d", cfg.n, cfg.p, len(cfg.want), cfg.window, workers)
			t.Run(name, func(t *testing.T) {
				got := manyBits(t, cfg.n, cfg.p, len(cfg.want), cfg.window, workers)
				for i := range got {
					if got[i] != cfg.want[i] {
						t.Errorf("array %d: bits %#x, want %#x", i, got[i], cfg.want[i])
					}
				}
			})
		}
	}
}

// manyBits runs RunMany over m real engines per rank, array i fed the
// x-slabs of randCube(n, n, n, 100+i), and hashes each array's outputs.
func manyBits(t *testing.T, n, p, m, window, workers int) []uint64 {
	t.Helper()
	outs := make([][][]complex128, m) // [array][rank]
	for i := range outs {
		outs[i] = make([][]complex128, p)
	}
	err := mem.NewWorld(p).Run(func(c *mem.Comm) {
		g, err := layout.NewGrid(n, n, n, p, c.Rank())
		if err != nil {
			panic(err)
		}
		engines := make([]Engine, m)
		for i := range engines {
			e, err := NewRealEngine(g, c, layout.ScatterX(randCube(n, n, n, int64(100+i)), g), fft.Forward, fft.Estimate, WithEngineWorkers(workers))
			if err != nil {
				panic(err)
			}
			defer e.Close()
			engines[i], outs[i][c.Rank()] = e, e.Output()
		}
		if _, err := RunMany(engines, window); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := make([]uint64, m)
	for i, o := range outs {
		hs[i] = hashBits(o)
	}
	return hs
}

// planBits runs Forward on the x-slabs of one random cube and, unless v is
// forward-only, Backward on the y-slabs of another, on one plan per rank,
// and hashes the outputs, ranks in order.
func planBits(t *testing.T, nx, ny, nz, p int, v Variant, workers int) (fwd, bwd uint64) {
	t.Helper()
	backward := v != TH && v != TH0
	fullX, fullY := randCube(nx, ny, nz, 41), randCube(nx, ny, nz, 43)
	outs, backs := make([][]complex128, p), make([][]complex128, p)
	err := mem.NewWorld(p).Run(func(c *mem.Comm) {
		g, err := layout.NewGrid(nx, ny, nz, p, c.Rank())
		if err != nil {
			panic(err)
		}
		plan, err := NewPlan(c, g, v, DefaultParams(g), fft.Estimate, WithWorkers(workers))
		if err != nil {
			panic(err)
		}
		defer plan.Close()
		out, _, err := plan.Forward(layout.ScatterX(fullX, g))
		if err != nil {
			panic(err)
		}
		outs[c.Rank()] = append([]complex128(nil), out...)
		if backward {
			back, _, err := plan.Backward(layout.ScatterY(fullY, g))
			if err != nil {
				panic(err)
			}
			backs[c.Rank()] = append([]complex128(nil), back...)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return hashBits(outs), hashBits(backs)
}

// hashBits is the FNV-64a hash of the slabs' elements in order, each as the
// little-endian IEEE-754 bits of its real then its imaginary part.
func hashBits(slabs [][]complex128) uint64 {
	h := fnv.New64a()
	var b [16]byte
	for _, s := range slabs {
		for _, x := range s {
			binary.LittleEndian.PutUint64(b[:8], math.Float64bits(real(x)))
			binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(x)))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}
