package model

import (
	"testing"

	"offt/internal/layout"
	"offt/internal/machine"
	"offt/internal/mpi/sim"
	"offt/internal/pfft"
)

func TestInterArrayOverlapHelpsInSim(t *testing.T) {
	// The Kandalla-style inter-array pipeline (pfft.RunMany) only pays off
	// with multiple independent arrays: window 3 must beat window 0 (one
	// blocking exchange at a time) on a comm-heavy simulated machine.
	mch := machine.UMDCluster()
	run := func(window int) int64 {
		const p, n, arrays = 8, 64, 6
		w := sim.NewWorld(mch, p)
		var end int64
		err := w.Run(func(c *sim.Comm) {
			g, err := layout.NewGrid(n, n, n, p, c.Rank())
			if err != nil {
				panic(err)
			}
			engines := make([]pfft.Engine, arrays)
			for i := range engines {
				engines[i] = NewEngine(mch, g, c)
			}
			if _, err := pfft.RunMany(engines, window); err != nil {
				panic(err)
			}
			if c.Rank() == 0 {
				end = c.Now()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
	blocking, overlapped := run(0), run(3)
	if !(overlapped < blocking) {
		t.Errorf("inter-array overlap did not help: window3=%d window0=%d", overlapped, blocking)
	}
}

func TestInterArrayBreakdownsRecorded(t *testing.T) {
	mch := machine.Hopper()
	const p, n, arrays = 4, 32, 3
	w := sim.NewWorld(mch, p)
	err := w.Run(func(c *sim.Comm) {
		g, err := layout.NewGrid(n, n, n, p, c.Rank())
		if err != nil {
			panic(err)
		}
		engines := make([]pfft.Engine, arrays)
		for i := range engines {
			engines[i] = NewEngine(mch, g, c)
		}
		b, err := pfft.RunMany(engines, 2)
		if err != nil {
			panic(err)
		}
		if b.Total <= 0 || b.FFTz <= 0 || b.FFTx <= 0 || b.Sum() > b.Total {
			t.Errorf("rank %d: incomplete breakdown %+v", c.Rank(), b)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
