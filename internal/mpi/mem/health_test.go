package mem

import (
	"testing"
	"time"

	"offt/internal/mpi"
	"offt/internal/mpi/fault"
	"offt/internal/mpi/transport"
)

// healthScenario drives a fixed fault plan through rounds of collectives
// in which exactly one rank sends (the others post zero counts), separated
// by barriers. One sender at a time makes the world-wide envelope ids — an
// input of every fault roll — independent of goroutine scheduling, and
// without jitter, stalls or link delay every delivery attempt completes
// inside the transmit call that made it, so the whole recovery history is
// a pure function of the plan.
func healthScenario(t *testing.T) mpi.Health {
	t.Helper()
	const p, rounds, n = 4, 24, 5
	plan := &fault.Plan{Seed: 20140215, DropRate: 0.15, DupRate: 0.2, CorruptRate: 0.15}
	w := NewWorld(p, transport.WithFaults(plan), transport.WithRetransmitTimeout(200*time.Microsecond))
	err := w.Run(func(c *Comm) {
		me := c.Rank()
		for round := 0; round < rounds; round++ {
			sender := round % p
			sendCounts := make([]int, p)
			recvCounts := make([]int, p)
			if me == sender {
				for d := range sendCounts {
					if d != me {
						sendCounts[d] = n + d
					}
				}
			} else {
				recvCounts[sender] = n + me
			}
			send := make([]complex128, total(sendCounts))
			for i := range send {
				send[i] = complex(float64(round), float64(i))
			}
			recv := make([]complex128, total(recvCounts))
			c.Alltoallv(send, sendCounts, recv, recvCounts)
			for i, v := range recv {
				off := 0
				for d := 0; d < me; d++ {
					if d != sender {
						off += n + d
					}
				}
				if v != complex(float64(round), float64(off+i)) {
					t.Errorf("round %d rank %d element %d = %v", round, me, i, v)
				}
			}
			c.Barrier()
		}
		// A resent delivery wakes its receiver before the resending timer
		// counts the ack, and Run's shutdown forgets an ack still on its way.
		for w.Outstanding() > 0 {
			time.Sleep(time.Millisecond)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return w.Health()
}

// TestHealthMatchesRecordedRun pins the transport's recovery behaviour:
// the counters below were recorded from this scenario at the commit before
// payloads became pooled and dedup became a per-link watermark (PR 14),
// where ten runs agreed exactly. Any change to what is dropped, resent,
// rejected, deduplicated or acknowledged moves at least one of them.
func TestHealthMatchesRecordedRun(t *testing.T) {
	want := mpi.Health{Sent: 72, Delivered: 72, DropsInjected: 18, CorruptionsInjected: 10, DuplicatesInjected: 19,
		Retransmits: 26, Dedups: 17, CorruptionsDetected: 10, Acks: 72, Backoffs: 5}
	if got := healthScenario(t); got != want {
		t.Errorf("transport health\n got %+v\nwant %+v", got, want)
	}
}
