// Pencil: the 2-D (pencil) domain decomposition — the scalable alternative
// of §2.2 (P3DFFT-style) and the substrate the paper proposes to combine
// with overlap as future work.
//
// It runs the same transform with the 1-D slab method (package pfft) and
// the 2-D pencil method (package pencil) on a 2×2 process grid, verifies
// both against the serial reference, and prints the simulated-cluster
// comparison, including a rank count where only the pencil method can run.
//
//	go run ./examples/pencil
package main

import (
	"fmt"
	"log"
	"math/cmplx"
	"math/rand"

	"offt/internal/fft"
	"offt/internal/machine"
	"offt/internal/model"
	"offt/internal/mpi/mem"
	"offt/internal/pencil"
	"offt/internal/pfft"
)

const (
	n  = 32
	pr = 2
	pc = 2
)

func main() {
	rng := rand.New(rand.NewSource(4))
	full := make([]complex128, n*n*n)
	for i := range full {
		full[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	ref := append([]complex128(nil), full...)
	fft.NewPlan3D(n, n, n, fft.Forward).Transform(ref)

	// 2-D pencil run on real data.
	p := pr * pc
	world := mem.NewWorld(p)
	outs := make([][]complex128, p)
	err := world.Run(func(c *mem.Comm) {
		g, err := pencil.NewGrid2D(n, n, n, pr, pc, c.Rank())
		if err != nil {
			panic(err)
		}
		out, err := pencil.Forward3D(c, g, pencil.ScatterPencil(full, g), fft.Estimate)
		if err != nil {
			panic(err)
		}
		outs[c.Rank()] = out
	})
	if err != nil {
		log.Fatal(err)
	}
	got := pencil.GatherPencil(outs, n, n, n, pr, pc)
	worst := 0.0
	for i := range got {
		if d := cmplx.Abs(got[i] - ref[i]); d > worst {
			worst = d
		}
	}
	fmt.Printf("pencil 3-D FFT of %d³ on a %dx%d grid: max abs error %.3e\n", n, pr, pc, worst)
	if worst > 1e-8 {
		log.Fatal("verification failed")
	}

	// Simulated-cluster comparison: where both fit, and where only the
	// pencil method scales.
	m := machine.UMDCluster()
	slab, err := model.SimulateCube(m, n, n, model.Spec{Variant: pfft.Baseline}) // p = N: slab's limit
	if err != nil {
		log.Fatal(err)
	}
	pen, err := pencil.SimulateGrid(m, 8, 4, n, n, n)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated %s at p=%d: slab-1d %.4fs, pencil-2d %.4fs\n",
		m.Name, n, float64(slab.MaxTotal)/1e9, float64(pen)/1e9)
	if _, err := model.SimulateCube(m, 4*n, n, model.Spec{Variant: pfft.Baseline}); err != nil {
		fmt.Printf("slab-1d at p=%d: %v\n", 4*n, err)
	}
	big, err := pencil.SimulateGrid(m, 16, 8, n, n, n)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pencil-2d at p=%d: %.4fs — scaling past the slab limit\n", 4*n, float64(big)/1e9)
	fmt.Println("OK")
}
