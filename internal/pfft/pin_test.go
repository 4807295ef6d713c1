package pfft

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"offt/internal/fft"
	"offt/internal/layout"
	"offt/internal/mpi/mem"
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
