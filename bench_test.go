// Benchmarks mirroring every table and figure of the paper's evaluation,
// plus ablations for the design choices DESIGN.md calls out. Each
// simulation benchmark reports the virtual job time as "virt-ms/op" next
// to the usual wall metrics, so shapes (who wins, by what factor) are
// visible straight from `go test -bench . -benchmem`.
//
// Benchmarks default to laptop-friendly sizes; the full paper-scale tables
// are regenerated by `go run ./cmd/offt-bench -scale paper all`.
package offt

import (
	"fmt"
	"math/rand"
	"testing"

	"offt/internal/fft"
	"offt/internal/layout"
	"offt/internal/machine"
	"offt/internal/model"
	"offt/internal/mpi/mem"
	"offt/internal/mpi/sim"
	"offt/internal/pencil"
	"offt/internal/pfft"
	"offt/internal/tuner"
)

// --- Substrate benchmarks -------------------------------------------------

func BenchmarkFFT1D(b *testing.B) {
	for _, n := range []int{256, 384, 640, 1024} {
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			p := fft.NewPlan(n, fft.Forward)
			x := make([]complex128, n)
			rng := rand.New(rand.NewSource(1))
			for i := range x {
				x[i] = complex(rng.Float64(), rng.Float64())
			}
			b.SetBytes(int64(n * 16))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.InPlace(x)
			}
		})
	}
}

func BenchmarkFFTSerial3D(b *testing.B) {
	const n = 64
	p := fft.NewPlan3D(n, n, n, fft.Forward)
	x := make([]complex128, n*n*n)
	rng := rand.New(rand.NewSource(2))
	for i := range x {
		x[i] = complex(rng.Float64(), rng.Float64())
	}
	b.SetBytes(int64(len(x) * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Transform(x)
	}
}

// BenchmarkFFTzTranspose sizes the slab path's first step at one rank's
// shape of a 64³ transform on two ranks. Forward: FFTz alone, FFTz then the
// local transpose (two passes over the slab, as the paper's Baseline runs
// them), and the one pass the real engine runs, which writes each
// transformed z row straight to its z-x-y addresses. Backward: FFTz⁻¹
// alone, the inverse transpose then FFTz⁻¹ in place, and the one pass that
// reads the transposed slab.
func BenchmarkFFTzTranspose(b *testing.B) {
	g, err := layout.NewGrid(64, 64, 64, 2, 0)
	if err != nil {
		b.Fatal(err)
	}
	xc, ny, nz := g.XC(), g.Ny, g.Nz
	src := make([]complex128, g.InSize())
	rng := rand.New(rand.NewSource(5))
	for i := range src {
		src[i] = complex(rng.Float64(), rng.Float64())
	}
	tmp := make([]complex128, len(src))
	dst := make([]complex128, len(src))
	run := func(name string, fn func()) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(src) * 16))
			for i := 0; i < b.N; i++ {
				fn()
			}
		})
	}
	zs := g.RowYBase(1, 0)
	for _, dir := range []fft.Direction{fft.Forward, fft.Backward} {
		p := fft.Plan1DCached(nz, dir, fft.Estimate).Clone()
		name := map[fft.Direction]string{fft.Forward: "forward", fft.Backward: "backward"}[dir]
		run(name+"/fftz", func() { p.TransformRowsTo(dst, src, xc*ny, nz) })
		name += "/standard"
		if dir == fft.Forward {
			run(name+"/two-pass", func() {
				p.TransformRowsTo(tmp, src, xc*ny, nz)
				layout.TransposeZXY(dst, tmp, xc, ny, nz)
			})
			run(name+"/fused", func() {
				for lx := 0; lx < xc; lx++ {
					p.StridedRowsTo(dst[g.RowYBase(0, lx):], src[lx*ny*nz:], ny, nz, 1, 1, zs)
				}
			})
			continue
		}
		run(name+"/two-pass", func() {
			layout.TransposeZXYInv(dst, src, xc, ny, nz)
			p.TransformRows(dst, xc*ny, nz)
		})
		run(name+"/fused", func() {
			for lx := 0; lx < xc; lx++ {
				p.StridedRowsTo(dst[lx*ny*nz:], src[g.RowYBase(0, lx):], ny, 1, zs, nz, 1)
			}
		})
	}
}

// --- Real-data distributed transform ---------------------------------------

func BenchmarkMemForward(b *testing.B) {
	const n, p = 64, 4
	full := make([]complex128, n*n*n)
	rng := rand.New(rand.NewSource(3))
	for i := range full {
		full[i] = complex(rng.Float64(), rng.Float64())
	}
	for _, v := range []pfft.Variant{pfft.Baseline, pfft.NEW, pfft.TH} {
		b.Run(v.String(), func(b *testing.B) {
			b.SetBytes(int64(len(full) * 16))
			for i := 0; i < b.N; i++ {
				w := mem.NewWorld(p)
				err := w.Run(func(c *mem.Comm) {
					g, err := layout.NewGrid(n, n, n, p, c.Rank())
					if err != nil {
						panic(err)
					}
					slab := layout.ScatterX(full, g)
					// TH reads only T, W and Fy of the parameter set.
					_, _, err = pfft.Forward3D(c, g, slab, v, pfft.DefaultParams(g), fft.Estimate)
					if err != nil {
						panic(err)
					}
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlanSteadyState is the paper-scale steady-state contrast for
// the reusable-plan API: b.N back-to-back 128³ transforms over 8
// in-process ranks, once with fresh engines and buffers every call and
// once on a single pre-sized plan per rank. The allocs/op column is the
// headline: plan reuse amortizes every slot, scratch and 1-D plan to ~0
// allocations per transform.
func BenchmarkPlanSteadyState(b *testing.B) {
	const n, p = 128, 8
	full := make([]complex128, n*n*n)
	rng := rand.New(rand.NewSource(4))
	for i := range full {
		full[i] = complex(rng.Float64(), rng.Float64())
	}
	b.Run("per-call", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(full) * 16))
		w := mem.NewWorld(p)
		err := w.Run(func(c *mem.Comm) {
			g, err := layout.NewGrid(n, n, n, p, c.Rank())
			if err != nil {
				panic(err)
			}
			for i := 0; i < b.N; i++ {
				slab := layout.ScatterX(full, g)
				if _, _, err := pfft.Forward3D(c, g, slab, pfft.NEW, pfft.DefaultParams(g), fft.Estimate); err != nil {
					panic(err)
				}
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	})
	b.Run("plan-reuse", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(full) * 16))
		w := mem.NewWorld(p)
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
			slab := layout.ScatterX(full, g) // read, not consumed, by every Forward
			for i := 0; i < b.N; i++ {
				if _, _, err := plan.Forward(slab); err != nil {
					panic(err)
				}
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	})
}

// --- Simulation helpers -----------------------------------------------------

// simOnce runs one simulated cube FFT and reports the virtual job time as a
// custom metric.
func simOnce(b *testing.B, m machine.Machine, p, n int, spec model.Spec) {
	b.Helper()
	var virt int64
	for i := 0; i < b.N; i++ {
		res, err := model.SimulateCube(m, p, n, spec)
		if err != nil {
			b.Fatal(err)
		}
		virt = res.MaxTotal
	}
	b.ReportMetric(float64(virt)/1e6, "virt-ms/op")
}

func defParams(b *testing.B, p, n int) pfft.Params {
	b.Helper()
	g, err := layout.NewGrid(n, n, n, p, 0)
	if err != nil {
		b.Fatal(err)
	}
	return pfft.DefaultParams(g)
}

func defTH(b *testing.B, p, n int) pfft.THParams {
	b.Helper()
	g, err := layout.NewGrid(n, n, n, p, 0)
	if err != nil {
		b.Fatal(err)
	}
	return pfft.DefaultTHParams(g)
}

// --- Table 2 / Fig. 7: per-variant times and speedups ----------------------

func benchTable2(b *testing.B, m machine.Machine, p, n int) {
	b.Helper()
	for _, v := range []pfft.Variant{pfft.Baseline, pfft.NEW, pfft.TH} {
		b.Run(fmt.Sprintf("p%d/N%d/%v", p, n, v), func(b *testing.B) {
			spec := model.Spec{Variant: v, Params: defParams(b, p, n), TH: defTH(b, p, n)}
			simOnce(b, m, p, n, spec)
		})
	}
}

func BenchmarkTable2aUMD(b *testing.B) {
	m := machine.UMDCluster()
	benchTable2(b, m, 8, 64)
	benchTable2(b, m, 8, 96)
}

func BenchmarkTable2bHopper(b *testing.B) {
	m := machine.Hopper()
	benchTable2(b, m, 8, 64)
	benchTable2(b, m, 8, 96)
}

func BenchmarkTable2cHopperLarge(b *testing.B) {
	m := machine.Hopper()
	benchTable2(b, m, 32, 160)
}

// BenchmarkFig7Speedup runs the FFTW/NEW pair back to back so the speedup
// shape is directly visible in the virt-ms metrics.
func BenchmarkFig7Speedup(b *testing.B) {
	m := machine.UMDCluster()
	p, n := 8, 96
	b.Run("FFTW", func(b *testing.B) { simOnce(b, m, p, n, model.Spec{Variant: pfft.Baseline}) })
	b.Run("NEW", func(b *testing.B) {
		simOnce(b, m, p, n, model.Spec{Variant: pfft.NEW, Params: defParams(b, p, n)})
	})
}

// --- Fig. 8: breakdown ablation (overlap on/off) ----------------------------

func BenchmarkFig8Breakdown(b *testing.B) {
	m := machine.UMDCluster()
	p, n := 8, 96
	prm := defParams(b, p, n)
	th := defTH(b, p, n)
	b.Run("NEW", func(b *testing.B) { simOnce(b, m, p, n, model.Spec{Variant: pfft.NEW, Params: prm}) })
	b.Run("NEW-0", func(b *testing.B) { simOnce(b, m, p, n, model.Spec{Variant: pfft.NEW0, Params: prm}) })
	b.Run("TH", func(b *testing.B) { simOnce(b, m, p, n, model.Spec{Variant: pfft.TH, TH: th}) })
	b.Run("TH-0", func(b *testing.B) { simOnce(b, m, p, n, model.Spec{Variant: pfft.TH0, TH: th}) })
}

// --- Table 3 / Table 4: the tuning loop itself ------------------------------

func BenchmarkTable3Tuning(b *testing.B) {
	m := machine.UMDCluster()
	for i := 0; i < b.N; i++ {
		if _, _, err := tuner.TuneNEW(m, 4, 48, 20); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4TuningTH(b *testing.B) {
	m := machine.UMDCluster()
	for i := 0; i < b.N; i++ {
		if _, _, err := tuner.TuneTH(m, 4, 48, 12); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 5 / §5.3.1: random-configuration evaluation ------------------------

func BenchmarkFig5RandomConfigs(b *testing.B) {
	m := machine.UMDCluster()
	for i := 0; i < b.N; i++ {
		if _, err := tuner.RandomNEW(m, 4, 48, 10, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 9: cross-platform configuration transplant -------------------------

func BenchmarkFig9CrossPlatform(b *testing.B) {
	umd := machine.UMDCluster()
	hop := machine.Hopper()
	p, n := 8, 96
	umdPrm, _, err := tuner.TuneNEW(umd, p, n, 20)
	if err != nil {
		b.Fatal(err)
	}
	hopPrm, _, err := tuner.TuneNEW(hop, p, n, 20)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("native", func(b *testing.B) {
		simOnce(b, umd, p, n, model.Spec{Variant: pfft.NEW, Params: umdPrm})
	})
	b.Run("cross", func(b *testing.B) {
		simOnce(b, umd, p, n, model.Spec{Variant: pfft.NEW, Params: hopPrm})
	})
}

// --- Ablations for DESIGN.md's called-out design choices ---------------------

func BenchmarkAblationTileSize(b *testing.B) {
	m := machine.UMDCluster()
	p, n := 8, 128
	for _, t := range []int{1, 8, 32, 128} {
		b.Run(fmt.Sprintf("T%d", t), func(b *testing.B) {
			prm := defParams(b, p, n)
			prm.T = t
			if prm.Pz > t {
				prm.Pz = t
			}
			if prm.Uz > t {
				prm.Uz = t
			}
			simOnce(b, m, p, n, model.Spec{Variant: pfft.NEW, Params: prm})
		})
	}
}

func BenchmarkAblationWindow(b *testing.B) {
	m := machine.UMDCluster()
	p, n := 8, 128
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("W%d", w), func(b *testing.B) {
			prm := defParams(b, p, n)
			prm.W = w
			simOnce(b, m, p, n, model.Spec{Variant: pfft.NEW, Params: prm})
		})
	}
}

func BenchmarkAblationTestFrequency(b *testing.B) {
	m := machine.UMDCluster()
	p, n := 8, 128
	for _, f := range []int{0, 4, 64, 1024} {
		b.Run(fmt.Sprintf("F%d", f), func(b *testing.B) {
			prm := defParams(b, p, n)
			prm.T = 16 // rendezvous-sized tiles, where progression matters
			prm.Fy, prm.Fp, prm.Fu, prm.Fx = f, f, f, f
			simOnce(b, m, p, n, model.Spec{Variant: pfft.NEW, Params: prm})
		})
	}
}

func BenchmarkAblationSubtile(b *testing.B) {
	m := machine.UMDCluster()
	p, n := 8, 128
	for _, c := range []struct {
		name   string
		px, uy int
	}{{"tiny", 1, 1}, {"tuned", 0, 0}, {"whole", 1 << 20, 1 << 20}} {
		b.Run(c.name, func(b *testing.B) {
			g, err := layout.NewGrid(n, n, n, p, 0)
			if err != nil {
				b.Fatal(err)
			}
			prm := pfft.DefaultParams(g)
			if c.px > 0 {
				prm.Px = min(c.px, g.XC())
				prm.Pz = min(c.px, prm.T)
				prm.Uy = min(c.uy, g.YC())
				prm.Uz = min(c.uy, prm.T)
			}
			simOnce(b, m, p, n, model.Spec{Variant: pfft.NEW, Params: prm})
		})
	}
}

func BenchmarkAblationFastTranspose(b *testing.B) {
	// NEW uses the §3.5 x-z-y transpose when Nx == Ny; the baseline always
	// uses the standard z-x-y path. Compare the Transpose buckets.
	m := machine.Hopper()
	p, n := 8, 128
	b.Run("fast", func(b *testing.B) {
		var virt int64
		for i := 0; i < b.N; i++ {
			res, err := model.SimulateCube(m, p, n, model.Spec{Variant: pfft.NEW, Params: defParams(b, p, n)})
			if err != nil {
				b.Fatal(err)
			}
			virt = res.Avg.Transpose
		}
		b.ReportMetric(float64(virt)/1e6, "transpose-virt-ms")
	})
	b.Run("standard", func(b *testing.B) {
		var virt int64
		for i := 0; i < b.N; i++ {
			res, err := model.SimulateCube(m, p, n, model.Spec{Variant: pfft.Baseline})
			if err != nil {
				b.Fatal(err)
			}
			virt = res.Avg.Transpose
		}
		b.ReportMetric(float64(virt)/1e6, "transpose-virt-ms")
	})
}

func BenchmarkAblationSearch(b *testing.B) {
	m := machine.UMDCluster()
	p, n := 4, 48
	b.Run("nelder-mead", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := tuner.TuneNEW(m, p, n, 25); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("random", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tuner.RandomNEW(m, p, n, 25, int64(i+1)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationStrategy compares tuning strategies at equal budget.
func BenchmarkAblationStrategy(b *testing.B) {
	m := machine.UMDCluster()
	p, n := 4, 48
	for _, c := range []struct {
		name  string
		strat tuner.Strategy
	}{{"nelder-mead", tuner.NelderMeadStrategy}, {"coordinate", tuner.CoordinateStrategy}} {
		b.Run(c.name, func(b *testing.B) {
			var best int64
			for i := 0; i < b.N; i++ {
				_, out, err := tuner.TuneNEWWith(m, p, n, 30, c.strat)
				if err != nil {
					b.Fatal(err)
				}
				best = out.BestTime()
			}
			b.ReportMetric(float64(best)/1e6, "best-virt-ms")
		})
	}
}

// BenchmarkDecomposition compares the 1-D slab baseline against the 2-D
// pencil method at a p where both fit (§2.2's trade-off).
func BenchmarkDecomposition(b *testing.B) {
	m := machine.UMDCluster()
	n := 64
	b.Run("slab-1d-p16", func(b *testing.B) {
		simOnce(b, m, 16, n, model.Spec{Variant: pfft.Baseline})
	})
	b.Run("pencil-2d-p16", func(b *testing.B) {
		var virt int64
		for i := 0; i < b.N; i++ {
			v, err := pencil.Simulate(m, 4, 4, n)
			if err != nil {
				b.Fatal(err)
			}
			virt = v
		}
		b.ReportMetric(float64(virt)/1e6, "virt-ms/op")
	})
}

// BenchmarkAblationInterArray quantifies the Kandalla-style inter-array
// pipeline against no overlap (window 0).
func BenchmarkAblationInterArray(b *testing.B) {
	mch := machine.UMDCluster()
	const p, n, arrays = 8, 64, 4
	for _, window := range []int{0, 3} {
		b.Run(fmt.Sprintf("window%d", window), func(b *testing.B) {
			var virt int64
			for i := 0; i < b.N; i++ {
				w := sim.NewWorld(mch, p)
				err := w.Run(func(c *sim.Comm) {
					g, err := layout.NewGrid(n, n, n, p, c.Rank())
					if err != nil {
						panic(err)
					}
					engines := make([]pfft.Engine, arrays)
					for j := range engines {
						engines[j] = model.NewEngine(mch, g, c)
					}
					if _, err := pfft.RunMany(engines, window); err != nil {
						panic(err)
					}
					if c.Rank() == 0 {
						virt = c.Now()
					}
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(virt)/1e6, "virt-ms/op")
		})
	}
}

// BenchmarkOverlappedPencil quantifies the §7 future work: overlap applied
// to the 2-D pencil decomposition versus the blocking pencil transform.
func BenchmarkOverlappedPencil(b *testing.B) {
	m := machine.UMDCluster()
	pr, pc, n := 4, 4, 64
	b.Run("blocking", func(b *testing.B) {
		var virt int64
		for i := 0; i < b.N; i++ {
			v, err := pencil.Simulate(m, pr, pc, n)
			if err != nil {
				b.Fatal(err)
			}
			virt = v
		}
		b.ReportMetric(float64(virt)/1e6, "virt-ms/op")
	})
	b.Run("overlapped", func(b *testing.B) {
		g0, err := pencil.NewGrid2D(n, n, n, pr, pc, 0)
		if err != nil {
			b.Fatal(err)
		}
		prm := pencil.DefaultParams2D(g0)
		var virt int64
		for i := 0; i < b.N; i++ {
			v, err := pencil.SimulateOverlapped(m, pr, pc, n, prm)
			if err != nil {
				b.Fatal(err)
			}
			virt = v
		}
		b.ReportMetric(float64(virt)/1e6, "virt-ms/op")
	})
}
