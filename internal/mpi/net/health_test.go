package net

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"offt/internal/mpi"
	"offt/internal/mpi/fault"
	"offt/internal/mpi/transport"
)

// healthScenario runs a fixed fault plan through rounds of ragged
// collectives on a loopback world and returns the ranks' summed transport
// counters, read at a quiescent point: every rank's unacked window has
// drained and all ranks have met at an in-process rendezvous, so nothing
// the plan injected is still on the wire. A rank's envelope ids follow its
// own program order, so every fault roll is a pure function of the plan;
// the retransmit timeout is far above the loopback round trip, so a
// resend happens only where the plan lost or corrupted a delivery.
func healthScenario(t *testing.T) mpi.Health {
	t.Helper()
	const p, rounds = 3, 8
	plan := &fault.Plan{Seed: 20140215, DropRate: 0.06, DupRate: 0.2, CorruptRate: 0.06}
	counts := testCounts(p)
	var mu sync.Mutex
	var sum mpi.Health
	var settled, read sync.WaitGroup // in-process rendezvous: no transport traffic
	settled.Add(p)
	read.Add(p)
	opts := func(int) []transport.Option {
		return []transport.Option{transport.WithFaults(plan), transport.WithRetransmitTimeout(150 * time.Millisecond)}
	}
	errs := launchWorlds(t, p, opts, func(w *World, c *Comm) {
		rank := c.Rank()
		send, sc := buildSend(rank, counts)
		want, rc := wantRecv(rank, counts)
		recv := make([]complex128, len(want))
		for round := 0; round < rounds; round++ {
			c.Alltoallv(send, sc, recv, rc)
			for i := range want {
				if recv[i] != want[i] {
					panic(fmt.Sprintf("round %d element %d: got %v, want %v", round, i, recv[i], want[i]))
				}
			}
		}
		for w.Outstanding() > 0 {
			time.Sleep(time.Millisecond)
		}
		settled.Done()
		settled.Wait()
		time.Sleep(20 * time.Millisecond) // trailing duplicates ride right behind the acked originals
		h := c.TransportHealth()
		mu.Lock()
		sum.Sent += h.Sent
		sum.Delivered += h.Delivered
		sum.DropsInjected += h.DropsInjected
		sum.CorruptionsInjected += h.CorruptionsInjected
		sum.DuplicatesInjected += h.DuplicatesInjected
		sum.Retransmits += h.Retransmits
		sum.Dedups += h.Dedups
		sum.CorruptionsDetected += h.CorruptionsDetected
		sum.Acks += h.Acks
		sum.Backoffs += h.Backoffs
		mu.Unlock()
		read.Done()
		read.Wait() // a rank that returns starts the teardown barrier, which the others would count
	})
	checkErrs(t, errs)
	return sum
}

// TestHealthMatchesRecordedRun pins the net transport's recovery
// behaviour: the counters below were recorded from this scenario at the
// commit before payloads and frames became pooled and dedup became a
// per-link watermark (PR 14), where twelve runs agreed exactly.
// Backoffs is a bound, not a count: a resend re-arms its timer only if its
// ack has not crossed the loopback yet, a race the scenario does not control.
func TestHealthMatchesRecordedRun(t *testing.T) {
	want := mpi.Health{Sent: 40, Delivered: 40, DropsInjected: 3, CorruptionsInjected: 2, DuplicatesInjected: 11,
		Retransmits: 5, Dedups: 11, CorruptionsDetected: 2, Acks: 40}
	got := healthScenario(t)
	if got.Backoffs > got.Retransmits {
		t.Errorf("%d backoffs for %d retransmits", got.Backoffs, got.Retransmits)
	}
	if got.Backoffs = 0; got != want {
		t.Errorf("transport health but for Backoffs\n got %+v\nwant %+v", got, want)
	}
}
