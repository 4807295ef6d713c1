package mem

import (
	"errors"
	"testing"
	"time"

	"offt/internal/mpi/fault"
	"offt/internal/mpi/transport"
)

// Chaos coverage for the tunable exchange schedules: the self-healing
// transport invariants (retransmit recovery, dedup, no hang, sticky
// failure on kill, soft-deadline downgrade) must hold regardless of which
// all-to-all algorithm is routing blocks.

// TestSchedulesSurviveChaos runs every schedule for several rounds under an
// aggressive drop/corrupt/dup/jitter mix and checks all data still routes.
func TestSchedulesSurviveChaos(t *testing.T) {
	for _, ex := range schedules() {
		ex := ex
		t.Run(exName(ex), func(t *testing.T) {
			plan := &fault.Plan{Seed: 11, DropRate: 0.2, CorruptRate: 0.1, DupRate: 0.2, JitterNs: 100_000}
			p := 4
			w := NewWorld(p, transport.WithFaults(plan), transport.WithRetransmitTimeout(time.Millisecond))
			err := w.Run(func(c *Comm) {
				c.SetExchange(ex)
				counts := []int{3, 1, 0, 5}
				recvCounts := make([]int, p)
				for s := range recvCounts {
					recvCounts[s] = counts[c.Rank()]
				}
				for round := 0; round < 6; round++ {
					send := fillBlocks(c.Rank(), counts)
					recv := make([]complex128, total(recvCounts))
					c.Alltoallv(send, counts, recv, recvCounts)
					checkBlocks(t, c.Rank(), recvCounts, recv)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if h := w.Health(); h.Retransmits == 0 {
				t.Error("chaos plan injected no recoveries — test not exercising the transport")
			}
		})
	}
}

// TestSchedulesRetransmitPath drops the first delivery attempt of every
// message: combined Bruck/hier packets must ride the retransmit path like
// any other payload.
func TestSchedulesRetransmitPath(t *testing.T) {
	for _, ex := range schedules() {
		ex := ex
		t.Run(exName(ex), func(t *testing.T) {
			plan := &fault.Plan{Seed: 12, ForceDropAttempts: 1}
			p := 4
			w := NewWorld(p, transport.WithFaults(plan), transport.WithRetransmitTimeout(time.Millisecond))
			err := w.Run(func(c *Comm) {
				c.SetExchange(ex)
				counts := []int{2, 2, 2, 2}
				send := fillBlocks(c.Rank(), counts)
				recv := make([]complex128, 8)
				c.Alltoallv(send, counts, recv, counts)
				checkBlocks(t, c.Rank(), counts, recv)
			})
			if err != nil {
				t.Fatal(err)
			}
			if h := w.Health(); h.Retransmits < 1 {
				t.Errorf("Retransmits = %d, want ≥ 1", h.Retransmits)
			}
		})
	}
}

// TestSchedulesStickyFailOnKill kills the world mid-collective: every
// schedule's Wait must surface the failure instead of hanging, and the
// failure must stay sticky.
func TestSchedulesStickyFailOnKill(t *testing.T) {
	for _, ex := range schedules() {
		ex := ex
		t.Run(exName(ex), func(t *testing.T) {
			p := 4
			// Stall every rank's NIC so the collective cannot complete before
			// the kill lands.
			var stalls []fault.RankStall
			for r := 0; r < p; r++ {
				stalls = append(stalls, fault.RankStall{Rank: r, At: 0, Dur: int64(time.Second)})
			}
			w := NewWorld(p, transport.WithFaults(&fault.Plan{Seed: 13, Stalls: stalls}))
			kill := errors.New("chaos kill")
			go func() {
				time.Sleep(10 * time.Millisecond)
				w.Fail(kill)
			}()
			err := w.Run(func(c *Comm) {
				c.SetExchange(ex)
				counts := []int{2, 2, 2, 2}
				send := fillBlocks(c.Rank(), counts)
				recv := make([]complex128, 8)
				c.Alltoallv(send, counts, recv, counts)
			})
			if !errors.Is(err, kill) {
				t.Fatalf("Run = %v, want the injected kill", err)
			}
			if got := w.Failed(); !errors.Is(got, kill) {
				t.Errorf("Failed() = %v, want sticky kill", got)
			}
		})
	}
}

// TestSchedulesWaitDeadlineDowngrade stalls rank 0 past the soft deadline:
// WaitDeadline must return a diagnostic (the overlap pipeline's downgrade
// signal) for every schedule, and a later Wait must still complete.
func TestSchedulesWaitDeadlineDowngrade(t *testing.T) {
	for _, ex := range schedules() {
		ex := ex
		t.Run(exName(ex), func(t *testing.T) {
			p := 2
			plan := &fault.Plan{Seed: 14, Stalls: []fault.RankStall{{Rank: 0, At: 0, Dur: int64(120 * time.Millisecond)}}}
			w := NewWorld(p, transport.WithFaults(plan), transport.WithDeadline(15*time.Millisecond))
			sawDeadline := false
			err := w.Run(func(c *Comm) {
				c.SetExchange(ex)
				counts := []int{2, 2}
				send := fillBlocks(c.Rank(), counts)
				recv := make([]complex128, 4)
				req := c.Ialltoallv(send, counts, recv, counts)
				werr := c.WaitDeadline(req)
				if c.Rank() == 1 {
					var de *transport.DeadlineError
					if !errors.As(werr, &de) {
						t.Errorf("rank 1: WaitDeadline = %v, want *transport.DeadlineError", werr)
					} else {
						sawDeadline = true
						if len(de.Missing) == 0 || len(de.Missing[0].From) == 0 {
							t.Errorf("diagnostic names no missing blocks: %+v", de.Missing)
						}
					}
				}
				c.Wait(req)
				checkBlocks(t, c.Rank(), counts, recv)
			})
			if err != nil {
				t.Fatal(err)
			}
			if !sawDeadline {
				t.Error("rank 1 never observed the wait deadline")
			}
		})
	}
}

// TestSchedulesZeroCounts: degenerate all-zero collectives must complete
// immediately under every schedule.
func TestSchedulesZeroCounts(t *testing.T) {
	for _, ex := range schedules() {
		ex := ex
		t.Run(exName(ex), func(t *testing.T) {
			p := 4
			w := NewWorld(p)
			err := w.Run(func(c *Comm) {
				c.SetExchange(ex)
				zero := []int{0, 0, 0, 0}
				req := c.Ialltoallv(nil, zero, nil, zero)
				c.Wait(req)
				if !c.Test(req) {
					t.Errorf("rank %d: zero collective incomplete after Wait", c.Rank())
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
