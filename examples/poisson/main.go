// Poisson: a distributed spectral Poisson solver — the computational core
// of the astrophysical N-body simulations that motivate the paper's
// successive single-array 3-D FFTs (§1).
//
// It solves ∇²φ = ρ on a periodic cube: forward 3-D FFT of ρ, division by
// −|k|² in frequency space (done in place on each rank's distributed
// y-slab), then the backward 3-D FFT. Verified against an analytic
// solution.
//
//	go run ./examples/poisson
package main

import (
	"fmt"
	"log"
	"math"

	"offt/internal/fft"
	"offt/internal/layout"
	"offt/internal/mpi/mem"
	"offt/internal/pfft"
)

const (
	n = 48  // grid points per dimension
	p = 4   // ranks
	l = 1.0 // box length
)

// phiExact is the manufactured solution.
func phiExact(x, y, z int) float64 {
	s := 2 * math.Pi / l
	h := l / n
	return math.Sin(s*float64(x)*h) * math.Sin(s*float64(y)*h) * math.Sin(s*float64(z)*h)
}

// rho is ∇²φ for the manufactured solution.
func rho(x, y, z int) float64 {
	s := 2 * math.Pi / l
	return -3 * s * s * phiExact(x, y, z)
}

// wavenumber folds an FFT bin index into a signed frequency.
func wavenumber(i int) float64 {
	if i > n/2 {
		i -= n
	}
	return 2 * math.Pi * float64(i) / l
}

func main() {
	full := make([]complex128, n*n*n)
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			for z := 0; z < n; z++ {
				full[(x*n+y)*n+z] = complex(rho(x, y, z), 0)
			}
		}
	}

	world := mem.NewWorld(p)
	solved := make([][]complex128, p)
	err := world.Run(func(c *mem.Comm) {
		g, err := layout.NewGrid(n, n, n, p, c.Rank())
		if err != nil {
			panic(err)
		}
		prm := pfft.DefaultParams(g)
		slab := layout.ScatterX(full, g)

		// Forward transform: ρ → ρ̂ (rank now owns a y-slab).
		rhoHat, _, err := pfft.Forward3D(c, g, slab, pfft.NEW, prm, fft.Estimate)
		if err != nil {
			panic(err)
		}

		// Divide by −|k|² in place on the distributed z-y-x slab; RowXBase
		// gives the base of each contiguous x row.
		y0 := g.Y0()
		for ly := 0; ly < g.YC(); ly++ {
			ky := wavenumber(y0 + ly)
			for z := 0; z < n; z++ {
				kz := wavenumber(z)
				base := g.RowXBase(ly, z)
				for x := 0; x < n; x++ {
					kx := wavenumber(x)
					k2 := kx*kx + ky*ky + kz*kz
					if k2 == 0 {
						rhoHat[base+x] = 0 // zero-mean gauge
					} else {
						rhoHat[base+x] /= complex(-k2, 0)
					}
				}
			}
		}

		// Backward transform: φ̂ → φ (rank owns an x-slab again).
		phi, _, err := pfft.Backward3D(c, g, rhoHat, pfft.NEW, prm, fft.Estimate)
		if err != nil {
			panic(err)
		}
		fft.ScaleBy(phi, 1/float64(n*n*n))
		solved[c.Rank()] = phi
	})
	if err != nil {
		log.Fatal(err)
	}

	phi := layout.GatherX(solved, n, n, n, p)
	worst := 0.0
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			for z := 0; z < n; z++ {
				d := math.Abs(real(phi[(x*n+y)*n+z]) - phiExact(x, y, z))
				if d > worst {
					worst = d
				}
			}
		}
	}
	fmt.Printf("spectral Poisson solve on %d³ across %d ranks\n", n, p)
	fmt.Printf("max abs error vs analytic solution: %.3e\n", worst)
	if worst > 1e-8 {
		log.Fatal("solution check failed")
	}
	fmt.Println("OK")
}
