package pencil

import (
	"math"

	"offt/internal/machine"
	"offt/internal/mpi"
	"offt/internal/mpi/sim"
	"offt/internal/pfft"
)

// Simulate runs the blocking pencil-decomposed 3-D FFT of an n³ array on a
// pr×pc simulated process grid and returns the job completion time
// (slowest rank, virtual nanoseconds). It mirrors Forward3D's control flow
// with cost-model kernels, enabling the 1-D-vs-2-D decomposition
// comparison of §2.2: one all-to-all over p ranks versus two all-to-alls
// over pc and pr ranks.
func Simulate(m machine.Machine, pr, pc, n int) (int64, error) {
	return SimulateGrid(m, pr, pc, n, n, n)
}

// SimulateGrid is Simulate for a general Nx×Ny×Nz grid: the whole-extent
// case of SimulateOverlappedGrid on the pairwise schedule.
func SimulateGrid(m machine.Machine, pr, pc, nx, ny, nz int) (int64, error) {
	g, err := NewGrid2D(nx, ny, nz, pr, pc, 0)
	if err != nil {
		return 0, err
	}
	return SimulateOverlappedGrid(m, pr, pc, nx, ny, nz, wholeExtent(g, mpi.CommPairwise))
}

// SimulateOverlapped runs the overlapped pencil transform (the paper's §7
// future work realized: overlap + 2-D decomposition) on the simulated
// cluster and returns the job completion time. Comparing it against
// Simulate quantifies how much of the two exchange phases the pipeline
// hides.
func SimulateOverlapped(m machine.Machine, pr, pc, n int, prm Params2D) (int64, error) {
	return SimulateOverlappedGrid(m, pr, pc, n, n, n, prm)
}

// SimulateOverlappedGrid is SimulateOverlapped for a general Nx×Ny×Nz grid.
// Each rank runs the forward transform's two phases through a
// pfft.Pipeline exactly as Plan.Forward does, with tile functions that
// charge the cost model instead of computing.
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
		pl := pfft.NewPipeline(c)
		pl.Begin(prm.Comm)
		phA, phB := costPhases(pl, c, m.Cmp, g, prm)
		pl.Run(g.tilesA(prm.TA), prm.WA, &phA)
		pl.Run(g.tilesB(prm.TB), prm.WB, &phB)
		ends[c.Rank()] = c.Now()
	})
	if err != nil {
		return 0, err
	}
	var max int64
	for _, e := range ends {
		if e > max {
			max = e
		}
	}
	return max, nil
}

// costPhases returns the forward transform's two phases for one simulated
// rank: the tile bounds and all-to-all counts are Plan's, the kernels
// advance the rank's virtual clock.
func costPhases(pl *pfft.Pipeline, c *sim.Comm, cmp machine.Compute, g Grid2D, prm Params2D) (phA, phB pfft.Phase) {
	fft := func(rows, length int) {
		if length < 2 {
			c.Advance(int64(cmp.FFTNsPerUnit * float64(rows)))
			return
		}
		c.Advance(int64(cmp.FFTNsPerUnit * float64(rows) * float64(length) * math.Log2(float64(length))))
	}
	// Pack/unpack: streaming copies with a modest cache penalty (the copies
	// stride through the pencil).
	copyElems := func(elems int) {
		c.Advance(int64(cmp.MemNsPerElem * 1.5 * float64(elems)))
	}
	xc, yc, zc, y2c := g.XC(), g.YC(), g.ZC(), g.Y2C()
	send := make([]int, g.P())
	recv := make([]int, g.P())

	phA = pfft.Phase{
		Front: func(i, _ int, win []mpi.Request) {
			x0, x1 := tileRange(i, prm.TA, xc)
			fft((x1-x0)*yc, g.Nz)
			pl.Tests(win, prm.F)
			copyElems((x1 - x0) * yc * g.Nz)
			pl.Tests(win, prm.F)
		},
		Post: func(i, _ int) mpi.Request {
			x0, x1 := tileRange(i, prm.TA, xc)
			g.countsA(x1-x0, send, recv)
			return c.Ialltoallv(nil, send, nil, recv)
		},
		Back: func(i, _ int, win []mpi.Request) {
			x0, x1 := tileRange(i, prm.TA, xc)
			copyElems((x1 - x0) * g.Ny * zc)
			pl.Tests(win, prm.F)
			fft((x1-x0)*zc, g.Ny)
			pl.Tests(win, prm.F)
		},
	}
	phB = pfft.Phase{
		Front: func(i, _ int, win []mpi.Request) {
			z0, z1 := tileRange(i, prm.TB, zc)
			copyElems(xc * g.Ny * (z1 - z0))
			pl.Tests(win, prm.F)
		},
		Post: func(i, _ int) mpi.Request {
			z0, z1 := tileRange(i, prm.TB, zc)
			g.countsB(z1-z0, send, recv)
			return c.Ialltoallv(nil, send, nil, recv)
		},
		Back: func(i, _ int, win []mpi.Request) {
			z0, z1 := tileRange(i, prm.TB, zc)
			copyElems(g.Nx * y2c * (z1 - z0))
			pl.Tests(win, prm.F)
			fft(y2c*(z1-z0), g.Nx)
			pl.Tests(win, prm.F)
		},
	}
	return phA, phB
}
