package pfft

import (
	"fmt"

	"offt/internal/mpi"
)

// RunMany executes m independent 3-D FFTs with inter-array overlap — the
// Kandalla et al. style the paper compares against (§6) and proposes to
// combine with its intra-array method (§7): while one array's all-to-all
// is in flight, the CPU computes on other arrays. Each array has its own
// Engine (its own slab and buffers) over the same communicator, and the
// result is the one Breakdown of the whole batch.
//
// The arrays are the tiles of one Pipeline phase, each a single whole-slab
// tile (no intra-array tiling), run with window arrays in flight on the
// pairwise schedule: Front is FFTz → Transpose (one pass on a RealEngine,
// booked under FFTz) → FFTy → Pack, Post the array's non-blocking
// all-to-all, Back Unpack → FFTx. One Test call after FFTz, FFTy and
// Unpack keeps rendezvous traffic progressing without hardware offload.
// Window 0 is the pipeline's blocking path: one array at a time, no
// overlap. From window 1 on, array i−window is waited for before array i
// is posted (Algorithm 1's order), and array i's Front overlaps it.
//
// This style only helps when many independent arrays exist; scientific
// simulations doing successive FFTs on a single array (the paper's target
// workload) cannot use it — which is the paper's criticism of the
// inter-array approach.
func RunMany(engines []Engine, window int) (Breakdown, error) {
	if len(engines) == 0 {
		return Breakdown{}, nil
	}
	if window < 0 {
		return Breakdown{}, fmt.Errorf("pfft: RunMany window %d < 0", window)
	}
	c := engines[0].Comm()
	for _, e := range engines {
		if e.Comm() != c {
			return Breakdown{}, fmt.Errorf("pfft: RunMany engines must share one communicator")
		}
	}
	pl := NewPipeline(c)
	// Every engine has its own buffers, so each array uses its slot 0
	// whatever slot the pipeline assigns.
	ph := Phase{
		Front: func(i, _ int, win []mpi.Request) {
			e := engines[i]
			g := e.Grid()
			fftzTranspose(pl, e, Baseline, i)
			pl.Tests(win, 1)
			t := c.Now()
			e.FFTySub(0, 0, g.Nz, 0, g.XC())
			pl.Step(&pl.B.FFTy, "FFTy", t, i)
			pl.Tests(win, 1)
			t = c.Now()
			e.PackSub(0, 0, g.Nz, 0, g.Nz, 0, g.XC())
			pl.Step(&pl.B.Pack, "Pack", t, i)
		},
		Post: func(i, _ int) mpi.Request {
			return engines[i].PostTile(0, engines[i].Grid().Nz)
		},
		Back: func(i, _ int, win []mpi.Request) {
			e := engines[i]
			g := e.Grid()
			t := c.Now()
			e.UnpackSub(0, 0, g.Nz, 0, g.Nz, 0, g.YC())
			pl.Step(&pl.B.Unpack, "Unpack", t, i)
			pl.Tests(win, 1)
			t = c.Now()
			e.FFTxSub(0, 0, g.Nz, 0, g.YC())
			pl.Step(&pl.B.FFTx, "FFTx", t, i)
		},
	}
	pl.Begin(mpi.CommPairwise)
	pl.Run(len(engines), window, &ph)
	return pl.End(), nil
}
