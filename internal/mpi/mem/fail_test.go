package mem

import (
	"errors"
	"testing"
	"time"
)

// TestFailUnblocksBlockedRanks: the administrative kill switch must wake a
// rank blocked in a collective immediately (not after the deadlock
// watchdog) and surface the given cause from Run.
func TestFailUnblocksBlockedRanks(t *testing.T) {
	cause := errors.New("administrative kill")
	w := NewWorld(2)
	start := time.Now()
	err := w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			// Never join the barrier: rank 0 would block forever without
			// the kill switch.
			time.Sleep(20 * time.Millisecond)
			w.Fail(cause)
			return
		}
		c.Barrier()
		t.Error("rank 0 returned from a barrier nobody else joined")
	})
	if !errors.Is(err, cause) {
		t.Fatalf("Run error = %v, want the administrative cause", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("Fail took %v to unblock the world; want prompt resolution", elapsed)
	}
	if got := w.Failed(); !errors.Is(got, cause) {
		t.Errorf("Failed() = %v, want the administrative cause", got)
	}
}

// TestFailIdempotent: only the first cause sticks.
func TestFailIdempotent(t *testing.T) {
	w := NewWorld(1)
	first := errors.New("first")
	w.Fail(first)
	w.Fail(errors.New("second"))
	if got := w.Failed(); !errors.Is(got, first) {
		t.Errorf("Failed() = %v, want the first cause", got)
	}
}
