// Spectral: successive 3-D FFTs on a single array over simulation time —
// the usage pattern (blood-flow / N-body simulations, §1 and §6) that
// makes the paper's intra-array overlap matter, and where Kandalla et
// al.'s inter-array overlap does not apply.
//
// It time-steps the periodic heat equation ∂u/∂t = ν∇²u with an exact
// spectral integrator (forward FFT, multiply by exp(−ν|k|²Δt), backward
// FFT each step) on an in-memory world with emulated network latency, and
// compares the wall-clock time of the blocking FFTW-style baseline against
// the overlapped NEW algorithm. Because the emulated link delay is idle
// time rather than CPU time, overlap produces genuine wall-clock savings
// even on one core.
//
//	go run ./examples/spectral
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"offt"

	"offt/internal/fft"
	"offt/internal/layout"
	"offt/internal/machine"
	"offt/internal/mpi/mem"
	"offt/internal/pfft"
)

const (
	n     = 48
	p     = 4
	steps = 3
	nu    = 0.05
	dt    = 0.01
)

func wavenumber(i int) float64 {
	if i > n/2 {
		i -= n
	}
	return 2 * math.Pi * float64(i)
}

// run advances `steps` timesteps with the given variant and returns the
// final field plus the elapsed wall time.
func run(variant pfft.Variant, full []complex128) ([]complex128, time.Duration, error) {
	// Emulated link delays make communication take real (idle) time.
	// Bandwidth-dominated links (2 MB/s, 0.2 ms latency): the pattern
	// where pipelining tiles behind computation pays off.
	m := machine.Laptop()
	m.Net.LatencyInterNs = 200_000 // 0.2 ms per message
	m.Net.NsPerByteInter = 500     // 2 MB/s links
	m.CoresPerNode = 1
	world := mem.NewWorld(p, mem.WithDelay(m))
	outs := make([][]complex128, p)
	start := time.Now()
	err := world.Run(func(c *mem.Comm) {
		g, err := layout.NewGrid(n, n, n, p, c.Rank())
		if err != nil {
			panic(err)
		}
		prm := pfft.DefaultParams(g)
		prm.T = n / 4 // four tiles in flight: enough pipelining at this size
		prm.W = 2
		slab := layout.ScatterX(full, g)
		for s := 0; s < steps; s++ {
			uHat, _, err := pfft.Forward3D(c, g, slab, variant, prm, fft.Estimate)
			if err != nil {
				panic(err)
			}
			y0 := g.Y0()
			for ly := 0; ly < g.YC(); ly++ {
				ky := wavenumber(y0 + ly)
				for z := 0; z < n; z++ {
					kz := wavenumber(z)
					base := g.RowXBase(ly, z)
					for x := 0; x < n; x++ {
						kx := wavenumber(x)
						decay := math.Exp(-nu * (kx*kx + ky*ky + kz*kz) * dt)
						uHat[base+x] *= complex(decay/float64(n*n*n), 0)
					}
				}
			}
			slab, _, err = pfft.Backward3D(c, g, uHat, variant, prm, fft.Estimate)
			if err != nil {
				panic(err)
			}
		}
		outs[c.Rank()] = slab
	})
	if err != nil {
		return nil, 0, err
	}
	return layout.GatherX(outs, n, n, n, p), time.Since(start), nil
}

func main() {
	// Validate the grid/rank decomposition up front with the shared
	// helper; a bad pairing otherwise surfaces as an engine-internal
	// error deep inside world.Run.
	if err := offt.ValidateShape(n, n, n, p); err != nil {
		log.Fatal(err)
	}

	// Initial condition: one Fourier mode, so the exact solution is a
	// uniform exponential decay.
	full := make([]complex128, n*n*n)
	k := 2 * math.Pi
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			for z := 0; z < n; z++ {
				full[(x*n+y)*n+z] = complex(math.Sin(k*float64(x)/n)*math.Cos(k*float64(y)/n), 0)
			}
		}
	}
	exactFactor := math.Exp(-nu * 2 * k * k * float64(steps) * dt)

	baseOut, baseT, err := run(pfft.Baseline, full)
	if err != nil {
		log.Fatal(err)
	}
	newOut, newT, err := run(pfft.NEW, full)
	if err != nil {
		log.Fatal(err)
	}

	// Verify both against the exact decay and each other.
	worst := 0.0
	for i := range full {
		exact := real(full[i]) * exactFactor
		if d := math.Abs(real(baseOut[i]) - exact); d > worst {
			worst = d
		}
		if d := math.Abs(real(newOut[i]) - real(baseOut[i])); d > worst {
			worst = d
		}
	}
	fmt.Printf("heat equation, %d spectral steps on %d³ across %d ranks (emulated slow links)\n", steps, n, p)
	fmt.Printf("max abs error vs exact decay: %.3e\n", worst)
	fmt.Printf("blocking baseline: %v\n", baseT.Round(time.Millisecond))
	fmt.Printf("overlapped NEW:    %v  (%.2fx)\n", newT.Round(time.Millisecond), float64(baseT)/float64(newT))
	if worst > 1e-8 {
		log.Fatal("solution check failed")
	}
	fmt.Println("OK")
}
