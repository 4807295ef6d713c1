package pfft

import (
	"sync"
	"testing"

	"offt/internal/fft"
	"offt/internal/layout"
	"offt/internal/mpi/mem"
)

func TestForwardManyMatchesSerial(t *testing.T) {
	nx, p, m := 12, 3, 4 // m arrays
	fulls := make([][]complex128, m)
	wants := make([][]complex128, m)
	for i := 0; i < m; i++ {
		fulls[i] = randCube(nx, nx, nx, int64(100+i))
		wants[i] = serialReference(fulls[i], nx, nx, nx)
	}
	w := mem.NewWorld(p)
	outs := make([][][]complex128, p) // [rank][array]
	var mu sync.Mutex
	err := w.Run(func(c *mem.Comm) {
		g, err := layout.NewGrid(nx, nx, nx, p, c.Rank())
		if err != nil {
			panic(err)
		}
		engines := make([]Engine, m)
		o := make([][]complex128, m)
		for i := range engines {
			e, err := NewRealEngine(g, c, layout.ScatterX(fulls[i], g), fft.Forward, fft.Estimate)
			if err != nil {
				panic(err)
			}
			engines[i], o[i] = e, e.Output()
		}
		bs, err := RunMany(engines, 2)
		if err != nil {
			panic(err)
		}
		if len(bs) != m {
			panic("wrong breakdown count")
		}
		mu.Lock()
		outs[c.Rank()] = o
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m; i++ {
		slabs := make([][]complex128, p)
		for r := 0; r < p; r++ {
			slabs[r] = outs[r][i]
		}
		got := layout.GatherY(slabs, nx, nx, nx, p, false)
		if e := maxErr(got, wants[i]); e > tol {
			t.Errorf("array %d: error %g", i, e)
		}
	}
}

func TestRunManyValidation(t *testing.T) {
	p := 1
	w := mem.NewWorld(p)
	err := w.Run(func(c *mem.Comm) {
		g, _ := layout.NewGrid(8, 8, 8, 1, 0)
		e, err := NewRealEngine(g, c, make([]complex128, g.InSize()), fft.Forward, fft.Estimate)
		if err != nil {
			panic(err)
		}
		if _, err := RunMany([]Engine{e}, 0); err == nil {
			t.Error("expected window validation error")
		}
		if bs, err := RunMany(nil, 1); err != nil || bs != nil {
			t.Error("empty engine list should be a no-op")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
