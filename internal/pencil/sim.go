package pencil

import (
	"math"
	"slices"

	"offt/internal/machine"
	"offt/internal/mpi"
	"offt/internal/mpi/sim"
)

// SimulateGrid runs the blocking pencil-decomposed 3-D FFT of an
// Nx×Ny×Nz array on a pr×pc simulated process grid and returns the job
// completion time (slowest rank, virtual nanoseconds): the whole-extent
// case of SimulateOverlappedGrid on the pairwise schedule. It enables the
// 1-D-vs-2-D decomposition comparison of §2.2: one all-to-all over p ranks
// versus two all-to-alls over pc and pr ranks.
func SimulateGrid(m machine.Machine, pr, pc, nx, ny, nz int) (int64, error) {
	g, err := NewGrid2D(nx, ny, nz, pr, pc, 0)
	if err != nil {
		return 0, err
	}
	return SimulateOverlappedGrid(m, pr, pc, nx, ny, nz, wholeExtent(g, mpi.CommPairwise))
}

// SimulateOverlappedGrid runs the overlapped pencil transform (the paper's
// §7 future work realized: overlap + 2-D decomposition) on the simulated
// cluster and returns the job completion time. Each rank runs Plan.Forward's
// two phases through a pfft.Pipeline, with steps that charge the cost
// model instead of computing. Comparing it against SimulateGrid quantifies
// how much of the two exchange phases the pipeline hides.
func SimulateOverlappedGrid(m machine.Machine, pr, pc, nx, ny, nz int, prm Params2D) (int64, error) {
	g0, err := NewGrid2D(nx, ny, nz, pr, pc, 0)
	if err != nil {
		return 0, err
	}
	if err := prm.Validate(g0); err != nil {
		return 0, err
	}
	p := pr * pc
	w := sim.NewWorld(m, p)
	ends := make([]int64, p)
	err = w.Run(func(c *sim.Comm) {
		g, err := NewGrid2D(nx, ny, nz, pr, pc, c.Rank())
		if err != nil {
			panic(err)
		}
		plan := newPlan(c, g, prm)
		plan.cost = &cost{c: c, cmp: m.Cmp}
		plan.execute(&plan.fwd)
		ends[c.Rank()] = c.Now()
	})
	if err != nil {
		return 0, err
	}
	return slices.Max(ends), nil
}

// cost charges a simulated rank's steps to its virtual clock.
type cost struct {
	c   *sim.Comm
	cmp machine.Compute
}

// fft charges rows transforms of the given length.
func (k *cost) fft(rows, length int) {
	if length < 2 {
		k.c.Advance(int64(k.cmp.FFTNsPerUnit * float64(rows)))
		return
	}
	k.c.Advance(int64(k.cmp.FFTNsPerUnit * float64(rows) * float64(length) * math.Log2(float64(length))))
}

// copy charges a pack or unpack of elems elements: a streaming copy with a
// modest cache penalty (the copies stride through the pencil).
func (k *cost) copy(elems int) {
	k.c.Advance(int64(k.cmp.MemNsPerElem * 1.5 * float64(elems)))
}
