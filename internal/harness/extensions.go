package harness

import (
	"fmt"
	"text/tabwriter"
	"time"

	"offt/internal/fft"
	"offt/internal/layout"
	"offt/internal/machine"
	"offt/internal/model"
	"offt/internal/mpi/mem"
	"offt/internal/mpi/sim"
	"offt/internal/pencil"
	"offt/internal/pfft"
)

// Extensions returns the experiments that go beyond the paper: the 2-D
// pencil decomposition (§2.2 / future work) and the inter-array overlap
// pipeline (§6 / future work). offt-bench exposes them alongside the
// paper's artifacts.
func Extensions() []Experiment {
	return []Experiment{
		{"ext-decomp", "Extension: 1-D slab vs 2-D pencil decomposition", ExtDecomposition},
		{"crossover", "Extension: slab-vs-pencil crossover study via the plan API", ExtCrossover},
		{"comm-crossover", "Extension: all-to-all schedule crossover study", ExtCommCrossover},
		{"ext-interarray", "Extension: inter-array overlap (Kandalla-style pipeline)", ExtInterArray},
		{"ext-steady", "Extension: plan reuse vs per-call transforms (steady state)", ExtSteadyState},
	}
}

// ExtSteadyState contrasts the per-call path (allocate + plan every
// transform) with the reusable-plan steady state, in wall time on the mem
// engine and in virtual time via SimulateSteady — the repeated-transform
// scenario the plan API exists for.
func ExtSteadyState(r *Runner) error {
	p, n, iters := 4, 32, 8
	if r.Cfg.Scale == ScalePaper {
		p, n, iters = 8, 128, 16
	}
	fmt.Fprintf(r.Cfg.Out, "== Extension — steady-state plan reuse, p=%d N=%d³ ×%d transforms, scale=%v ==\n",
		p, n, iters, r.Cfg.Scale)
	tw := tabwriter.NewWriter(r.Cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "path\twall (s)\tvs per-call")

	data := make([]complex128, n*n*n)
	for i := range data {
		data[i] = complex(float64(i%17)/17-0.5, float64(i%13)/13-0.5)
	}

	perCall, err := timeMemPerCall(data, n, p, iters)
	if err != nil {
		return err
	}
	fmt.Fprintf(tw, "per-call\t%.4f\t1.00x\n", perCall.Seconds())

	reuse, err := timeMemPlanReuse(data, n, p, iters)
	if err != nil {
		return err
	}
	fmt.Fprintf(tw, "plan-reuse\t%.4f\t%.2fx\n", reuse.Seconds(), perCall.Seconds()/reuse.Seconds())
	if err := tw.Flush(); err != nil {
		return err
	}

	// The same lifecycle charged in virtual time on the simulated cluster.
	mch, err := machine.ByName("umd-cluster")
	if err != nil {
		return err
	}
	g0, err := layout.NewGrid(n, n, n, p, 0)
	if err != nil {
		return err
	}
	res, err := model.SimulateSteady(mch, p, n, n, n, model.Spec{Variant: pfft.NEW, Params: pfft.DefaultParams(g0)}, iters)
	if err != nil {
		return err
	}
	fmt.Fprintf(r.Cfg.Out, "virtual steady state on %s: %.4f s for %d transforms (%.4f s each)\n",
		mch.Name, sec(res.MaxTotal), iters, sec(res.MaxTotal)/float64(iters))
	return nil
}

// timeMemPerCall runs iters transforms creating fresh engines each call.
func timeMemPerCall(data []complex128, n, p, iters int) (time.Duration, error) {
	w := mem.NewWorld(p)
	start := time.Now()
	err := w.Run(func(c *mem.Comm) {
		g, err := layout.NewGrid(n, n, n, p, c.Rank())
		if err != nil {
			panic(err)
		}
		for it := 0; it < iters; it++ {
			slab := layout.ScatterX(data, g)
			if _, _, err := pfft.Forward3D(c, g, slab, pfft.NEW, pfft.DefaultParams(g), fft.Estimate); err != nil {
				panic(err)
			}
		}
	})
	return time.Since(start), err
}

// timeMemPlanReuse runs iters transforms on one reusable plan per rank.
func timeMemPlanReuse(data []complex128, n, p, iters int) (time.Duration, error) {
	w := mem.NewWorld(p)
	start := time.Now()
	err := w.Run(func(c *mem.Comm) {
		g, err := layout.NewGrid(n, n, n, p, c.Rank())
		if err != nil {
			panic(err)
		}
		plan, err := pfft.NewPlan(c, g, pfft.NEW, pfft.DefaultParams(g), fft.Estimate)
		if err != nil {
			panic(err)
		}
		defer plan.Close()
		slab := layout.ScatterX(data, g) // read, not consumed, by every Forward
		for it := 0; it < iters; it++ {
			if _, _, err := plan.Forward(slab); err != nil {
				panic(err)
			}
		}
	})
	return time.Since(start), err
}

// ExtDecomposition compares the blocking 1-D slab transform against the
// 2-D pencil transform across process counts, including counts where the
// slab cannot run (p > N) — the scalability argument of §2.2.
func ExtDecomposition(r *Runner) error {
	type cfg struct {
		mach   string
		n      int
		ps     []int
		pgrids [][2]int
	}
	c := cfg{mach: "umd-cluster", n: 64, ps: []int{16, 64, 128}, pgrids: [][2]int{{4, 4}, {8, 8}, {16, 16}}}
	if r.Cfg.Scale == ScalePaper {
		c = cfg{mach: "umd-cluster", n: 256, ps: []int{16, 64, 256, 512}, pgrids: [][2]int{{4, 4}, {8, 8}, {16, 16}, {32, 32}}}
	}
	m, err := machine.ByName(c.mach)
	if err != nil {
		return err
	}
	fmt.Fprintf(r.Cfg.Out, "== Extension — decomposition comparison on %s, N=%d³, scale=%v ==\n", c.mach, c.n, r.Cfg.Scale)
	tw := tabwriter.NewWriter(r.Cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "method\tp\ttime (s)")
	for _, p := range c.ps {
		res, err := model.SimulateCube(m, p, c.n, model.Spec{Variant: pfft.Baseline})
		if err != nil {
			fmt.Fprintf(tw, "slab-1d\t%d\t(infeasible: %v)\n", p, err)
			continue
		}
		fmt.Fprintf(tw, "slab-1d\t%d\t%.4f\n", p, sec(res.MaxTotal))
	}
	for _, pg := range c.pgrids {
		pr, pc := pg[0], pg[1]
		v, err := pencil.SimulateGrid(m, pr, pc, c.n, c.n, c.n)
		if err != nil {
			fmt.Fprintf(tw, "pencil-2d\t%d (%dx%d)\t(infeasible: %v)\n", pr*pc, pr, pc, err)
			continue
		}
		fmt.Fprintf(tw, "pencil-2d\t%d (%dx%d)\t%.4f\n", pr*pc, pr, pc, sec(v))
		// The paper's §7 future work realized: overlap applied to both
		// pencil exchange phases.
		g0, err := pencil.NewGrid2D(c.n, c.n, c.n, pr, pc, 0)
		if err != nil {
			continue
		}
		ov, err := pencil.SimulateOverlappedGrid(m, pr, pc, c.n, c.n, c.n, pencil.DefaultParams2D(g0))
		if err != nil {
			continue
		}
		fmt.Fprintf(tw, "pencil-2d+overlap\t%d (%dx%d)\t%.4f\n", pr*pc, pr, pc, sec(ov))
	}
	return tw.Flush()
}

// ExtInterArray sweeps the inter-array pipeline window for a batch of
// independent transforms, showing where Kandalla-style overlap pays off
// against window 0, one blocking exchange at a time.
func ExtInterArray(r *Runner) error {
	mch, err := machine.ByName("umd-cluster")
	if err != nil {
		return err
	}
	p, n, arrays := 8, 64, 6
	if r.Cfg.Scale == ScalePaper {
		p, n, arrays = 16, 256, 6
	}
	fmt.Fprintf(r.Cfg.Out, "== Extension — inter-array overlap, %s p=%d N=%d³ ×%d arrays, scale=%v ==\n",
		mch.Name, p, n, arrays, r.Cfg.Scale)
	tw := tabwriter.NewWriter(r.Cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "window\ttotal (s)\tvs window 0")
	var base int64
	for _, window := range []int{0, 1, 2, 3, 4} {
		w := sim.NewWorld(mch, p)
		var end int64
		err := w.Run(func(c *sim.Comm) {
			g, err := layout.NewGrid(n, n, n, p, c.Rank())
			if err != nil {
				panic(err)
			}
			engines := make([]pfft.Engine, arrays)
			for i := range engines {
				engines[i] = model.NewEngine(mch, g, c)
			}
			if _, err := pfft.RunMany(engines, window); err != nil {
				panic(err)
			}
			if t := c.Now(); t > end {
				end = t
			}
		})
		if err != nil {
			return err
		}
		if window == 0 {
			base = end
		}
		fmt.Fprintf(tw, "%d\t%.4f\t%.2fx\n", window, sec(end), float64(base)/float64(end))
	}
	return tw.Flush()
}
