package model

import (
	"testing"

	"offt/internal/layout"
	"offt/internal/machine"
	"offt/internal/pfft"
)

// TestSimulateAllocs gates what one simulated message costs the allocator:
// the heap objects of one SimulateCube(umd-cluster, 16, 128³, NEW, default
// parameters) — world, fabric, sixteen coroutines, pipelines and every
// request — divided by the point-to-point messages it simulates. It is the
// benchmark's model.allocs_per_eval ÷ simnet.msgs_per_eval, and the tuner's
// cost per evaluation in the one currency that repeats exactly. Goroutine
// ranks with closure events and per-key queues read 21.8; requests cut from
// the fabric's chunks, queued through themselves and scheduled as their own
// event records read 0.28, and the gate sits at half an object.
func TestSimulateAllocs(t *testing.T) {
	m := machine.UMDCluster()
	const p, n = 16, 128
	g, err := layout.NewGrid(n, n, n, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	spec := NewSpec(pfft.DefaultParams(g))
	res, err := SimulateCube(m, p, n, spec)
	if err != nil {
		t.Fatal(err)
	}
	msgs := float64(res.Net.EagerMsgs + res.Net.RendezvousMsgs)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := SimulateCube(m, p, n, spec); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f objects for %.0f messages: %.2f per message", allocs, msgs, allocs/msgs)
	if allocs > msgs/2 {
		t.Errorf("%.0f objects for %.0f messages: %.2f per message, want <= 0.5", allocs, msgs, allocs/msgs)
	}
}
