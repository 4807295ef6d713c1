package sim

import (
	"runtime"
	"testing"
)

// TestPanicMidCollectiveUnwindsWorld: one rank panics while the others are
// parked in Wait on a rendezvous all-to-all it never progresses. Run must
// report that rank's panic verbatim and leave no rank behind, and a World
// runs once.
func TestPanicMidCollectiveUnwindsWorld(t *testing.T) {
	const p = 4
	before := runtime.NumGoroutine()
	w := NewWorld(flat(), p)
	waiting := 0
	err := w.Run(func(c *Comm) {
		counts := uniform(p, 500) // 8000 bytes per pair: rendezvous
		req := c.Ialltoallv(nil, counts, nil, counts)
		if c.Rank() == 2 {
			c.Advance(1_000_000)
			panic("rank 2 gave up")
		}
		waiting++
		c.Wait(req) // needs rank 2 inside MPI; it never is again
		t.Errorf("rank %d came out of Wait", c.Rank())
	})
	if err == nil || err.Error() != "vclock: process 2 panicked: rank 2 gave up" {
		t.Errorf("error %v", err)
	}
	if waiting != p-1 {
		t.Errorf("%d ranks reached Wait, want %d", waiting, p-1)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("%d goroutines before Run, %d after", before, after)
	}
	if err := w.Run(func(*Comm) {}); err == nil {
		t.Error("second Run of one World succeeded")
	}
}
