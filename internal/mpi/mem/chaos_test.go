package mem

import (
	"strings"
	"testing"
	"time"

	"offt/internal/mpi"
	"offt/internal/mpi/fault"
	"offt/internal/mpi/transport"
)

// TestRandomizedChaosConverges runs many rounds under an aggressive random
// mix of drops, corruption, duplication and jitter and checks every
// element still routes correctly.
func TestRandomizedChaosConverges(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		plan := &fault.Plan{Seed: seed, DropRate: 0.2, CorruptRate: 0.1, DupRate: 0.2, JitterNs: 100_000}
		p := 4
		w := NewWorld(p, transport.WithFaults(plan), transport.WithRetransmitTimeout(time.Millisecond))
		err := w.Run(func(c *Comm) {
			counts := []int{3, 1, 0, 5}
			// Every rank sends the same counts vector, so rank r receives
			// counts[r] elements from each sender.
			recvCounts := make([]int, p)
			for s := range recvCounts {
				recvCounts[s] = counts[c.Rank()]
			}
			for round := 0; round < 10; round++ {
				send := fillBlocks(c.Rank(), counts)
				recv := make([]complex128, total(recvCounts))
				c.Alltoallv(send, counts, recv, recvCounts)
				checkBlocks(t, c.Rank(), recvCounts, recv)
			}
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestDeadlockDetected runs a deliberately mismatched program (one rank in
// Barrier, the other waiting for a block that will never be sent): Run
// must return a diagnostic error naming the stuck collective sequence
// number instead of hanging the test binary.
func TestDeadlockDetected(t *testing.T) {
	w := NewWorld(2)
	// Shorten the default watchdog window (white-box) without enabling the
	// per-call hard limits, so it is Run's watchdog that reports.
	w.watch = 150 * time.Millisecond
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(c *Comm) {
			if c.Rank() == 0 {
				c.Barrier()
				return
			}
			send := []complex128{5}
			recv := make([]complex128, 1)
			req := c.Ialltoallv(send, []int{1, 0}, recv, []int{1, 0})
			c.Wait(req)
		})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected a deadlock error, got nil")
		}
		msg := err.Error()
		if !strings.Contains(msg, "deadlock") {
			t.Errorf("error %q does not mention deadlock", msg)
		}
		if !strings.Contains(msg, "seq [0]") && !strings.Contains(msg, "seq 0") {
			t.Errorf("error %q does not name the stuck collective sequence number", msg)
		}
		if !strings.Contains(msg, "Barrier") {
			t.Errorf("error %q does not mention the rank stuck in Barrier", msg)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run hung despite the deadlock watchdog")
	}
}

// TestBarrierHangTimeout: with an explicit hang timeout, a Barrier that can
// never complete fails the world with a diagnostic error.
func TestBarrierHangTimeout(t *testing.T) {
	w := NewWorld(2, transport.WithHangTimeout(100*time.Millisecond))
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Barrier() // rank 1 never arrives
		}
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	if !strings.Contains(err.Error(), "Barrier") {
		t.Errorf("error %q does not mention Barrier", err)
	}
}

// TestZeroCountVectors exercises Ialltoallv with all-zero counts (nil
// buffers allowed) and with zero-length peers mixed in — the sub-grid
// collective shapes the pencil decomposition produces.
func TestZeroCountVectors(t *testing.T) {
	p := 3
	w := NewWorld(p)
	err := w.Run(func(c *Comm) {
		zero := []int{0, 0, 0}
		// All-zero counts with nil buffers: must complete immediately.
		req := c.Ialltoallv(nil, zero, nil, zero)
		if !c.Test(req) {
			t.Errorf("rank %d: all-zero collective not immediately complete", c.Rank())
		}
		c.Wait(req)
		// Mixed zero/nonzero: only rank 1's column carries data.
		sendCounts := []int{0, 2, 0}
		recvCounts := make([]int, p)
		if c.Rank() == 1 {
			recvCounts = []int{2, 2, 2}
		}
		send := fillBlocks(c.Rank(), sendCounts)
		recv := make([]complex128, total(recvCounts))
		c.Alltoallv(send, sendCounts, recv, recvCounts)
		if c.Rank() == 1 {
			checkBlocks(t, 1, recvCounts, recv)
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestZeroCountSingleRank: the degenerate p=1 world where every collective
// is a self-copy.
func TestZeroCountSingleRank(t *testing.T) {
	w := NewWorld(1)
	err := w.Run(func(c *Comm) {
		req := c.Ialltoallv(nil, []int{0}, nil, []int{0})
		c.Wait(req)
		send := []complex128{1 + 2i, 3}
		recv := make([]complex128, 2)
		c.Alltoallv(send, []int{2}, recv, []int{2})
		if recv[0] != 1+2i || recv[1] != 3 {
			t.Errorf("self-copy wrong: %v", recv)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFaultFreeHealthCounts: without faults the health counters still
// track sent/delivered symmetrically and report no recovery activity.
func TestFaultFreeHealthCounts(t *testing.T) {
	p := 2
	w := NewWorld(p)
	err := w.Run(func(c *Comm) {
		counts := []int{1, 1}
		send := fillBlocks(c.Rank(), counts)
		recv := make([]complex128, 2)
		c.Alltoallv(send, counts, recv, counts)
	})
	if err != nil {
		t.Fatal(err)
	}
	h := w.Health()
	if h.Sent != 2 || h.Delivered != 2 {
		t.Errorf("sent/delivered = %d/%d, want 2/2", h.Sent, h.Delivered)
	}
	if h.Retransmits != 0 || h.Dedups != 0 || h.CorruptionsDetected != 0 || h.DropsInjected != 0 {
		t.Errorf("fault-free world reported recovery activity: %+v", h)
	}
	var _ mpi.Health = h
}
