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
// two passes. Every variant with the same output layout computes the same
// bits, serial and with a worker pool alike, so one forward hash per layout
// and one backward hash cover a grid. The grids cover the fast layout
// (Nx == Ny under NEW and NEW-0), a ragged standard-only grid, a z length
// that takes the Bluestein path (37) and a single rank.
func TestSlabBitsPinned(t *testing.T) {
	grids := []struct {
		nx, ny, nz, p  int
		std, fast, bwd uint64 // forward in the z-y-x and y-z-x layouts; backward
	}{
		{64, 64, 64, 2, 0x688958c63c7fe09b, 0xd7166acf96736843, 0x3227f16014061710},
		{12, 10, 9, 3, 0xa50c664d3acc803c, 0, 0xc08afa64d45f5d3f},
		{8, 8, 37, 2, 0xf03fb21a6262185a, 0xc459cb7fc649c7ba, 0x1104d8b00c5f4278},
		{8, 8, 6, 1, 0x57723cc00b7c2b25, 0xad9bd5fa66aa19b5, 0xbe057a6f9f091f8c},
	}
	for _, v := range []Variant{NEW, NEW0, Baseline, TH, TH0} {
		for _, gr := range grids {
			for _, workers := range []int{1, 2} {
				name := fmt.Sprintf("%v/%dx%dx%d-p%d/w%d", v, gr.nx, gr.ny, gr.nz, gr.p, workers)
				t.Run(name, func(t *testing.T) {
					fwd, bwd, fast := planBits(t, gr.nx, gr.ny, gr.nz, gr.p, v, workers)
					want := gr.std
					if fast {
						want = gr.fast
					}
					if fwd != want {
						t.Errorf("forward bits %#x, want %#x", fwd, want)
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
			fwd1, bwd1, _ := planBits(t, gr.nx, gr.ny, gr.nz, gr.p, v, 1)
			fwd4, bwd4, _ := planBits(t, gr.nx, gr.ny, gr.nz, gr.p, v, 4)
			if fwd1 != fwd4 || bwd1 != bwd4 {
				t.Errorf("%v %dx%dx%d p=%d: four workers %#x/%#x, serial %#x/%#x",
					v, gr.nx, gr.ny, gr.nz, gr.p, fwd4, bwd4, fwd1, bwd1)
			}
		}
	}
}

// planBits runs Forward on the x-slabs of one random cube and, unless v is
// forward-only, Backward on the y-slabs of another, on one plan per rank,
// and hashes the outputs, ranks in order. fast reports the output layout.
func planBits(t *testing.T, nx, ny, nz, p int, v Variant, workers int) (fwd, bwd uint64, fast bool) {
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
			back, _, err := plan.Backward(layout.ScatterY(fullY, g, plan.OutputFast()))
			if err != nil {
				panic(err)
			}
			backs[c.Rank()] = append([]complex128(nil), back...)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	g0, _ := layout.NewGrid(nx, ny, nz, p, 0)
	return hashBits(outs), hashBits(backs), OutputFast(v, g0)
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
