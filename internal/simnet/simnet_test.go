package simnet

import (
	"testing"

	"offt/internal/machine"
	"offt/internal/vclock"
)

// run executes body for p ranks over a fresh fabric on machine m and
// returns the fabric for inspection.
func run(t *testing.T, m machine.Machine, p int, body func(ep *Endpoint)) *Fabric {
	t.Helper()
	f := NewFabric(m, p)
	s := vclock.New(p)
	err := s.Run(func(proc *vclock.Proc) {
		body(f.Endpoint(proc.ID(), proc))
	})
	if err != nil {
		t.Fatalf("simulation failed: %v", err)
	}
	return f
}

// flat is a machine with round constants that make timing arithmetic easy
// to verify by hand: zero CPU overheads, 1 ns/byte, 100 ns latency,
// eager threshold 1000 bytes.
func flat() machine.Machine {
	return machine.Machine{
		Name:         "flat",
		CoresPerNode: 1,
		Net: machine.Network{
			LatencyIntraNs: 100,
			LatencyInterNs: 100,
			NsPerByteIntra: 1,
			NsPerByteInter: 1,
			FabricAlpha:    0,
			EagerThreshold: 1000,
		},
		Cmp: machine.Compute{}, // all CPU costs zero
	}
}

func TestEagerDelivery(t *testing.T) {
	// Rank 0 sends 500 eager bytes at t=0; rank 1 receives.
	// Arrival = txStart(0) + latency(100) + bytes·rate(500) = 600.
	var recvDone, sendDone int64
	run(t, flat(), 2, func(ep *Endpoint) {
		if ep.Rank() == 0 {
			req := ep.Isend(1, 7, 500)
			ep.WaitAll(req)
			sendDone = ep.Now()
		} else {
			req := ep.Irecv(0, 7, 500)
			ep.WaitAll(req)
			recvDone = ep.Now()
		}
	})
	if recvDone != 600 {
		t.Errorf("eager recv completed at %d, want 600", recvDone)
	}
	if sendDone != 0 {
		t.Errorf("eager send completed at %d, want 0 (buffered)", sendDone)
	}
}

func TestEagerUnexpectedMessage(t *testing.T) {
	// The receive is posted long after the message arrived; it completes
	// immediately at posting time.
	var recvDone int64
	run(t, flat(), 2, func(ep *Endpoint) {
		if ep.Rank() == 0 {
			ep.Isend(1, 1, 100)
		} else {
			ep.Proc().Advance(5000)
			req := ep.Irecv(0, 1, 100)
			ep.WaitAll(req)
			recvDone = ep.Now()
		}
	})
	if recvDone != 5000 {
		t.Errorf("unexpected-message recv completed at %d, want 5000", recvDone)
	}
}

func TestRendezvousBothWaiting(t *testing.T) {
	// 2000 bytes > eager threshold. Both sides immediately wait, so every
	// handshake step fires at its natural time:
	// RTS arrives at 100; CTS back at 200; data starts at 200,
	// arrival = 200 + latency(100) + 2000·1 = 2300. Sender's injection
	// finishes at 2200.
	var recvDone, sendDone int64
	run(t, flat(), 2, func(ep *Endpoint) {
		if ep.Rank() == 0 {
			req := ep.Isend(1, 3, 2000)
			ep.WaitAll(req)
			sendDone = ep.Now()
		} else {
			req := ep.Irecv(0, 3, 2000)
			ep.WaitAll(req)
			recvDone = ep.Now()
		}
	})
	if recvDone != 2300 {
		t.Errorf("rendezvous recv completed at %d, want 2300", recvDone)
	}
	if sendDone != 2200 {
		t.Errorf("rendezvous send completed at %d, want 2200", sendDone)
	}
}

func TestRendezvousStallsWithoutProgress(t *testing.T) {
	// The receiver computes for 1 ms without any MPI call after posting
	// the receive. The RTS arrives at t=100 but the CTS can only be sent
	// at the receiver's next MPI call (the Wait at t=1_000_000), so the
	// transfer completes around 1_002_300 instead of 2300.
	var recvDone int64
	run(t, flat(), 2, func(ep *Endpoint) {
		if ep.Rank() == 0 {
			req := ep.Isend(1, 3, 2000)
			ep.WaitAll(req)
		} else {
			req := ep.Irecv(0, 3, 2000)
			ep.Proc().Advance(1_000_000)
			ep.WaitAll(req)
			recvDone = ep.Now()
		}
	})
	if recvDone != 1_002_200 {
		t.Errorf("stalled rendezvous completed at %d, want 1002200", recvDone)
	}
}

func TestRendezvousProgressesWithTest(t *testing.T) {
	// Same as above, but the receiver calls Test midway through the
	// computation, releasing the CTS at t=500_000; the sender is in Wait
	// so the data flows immediately after.
	var recvDone int64
	run(t, flat(), 2, func(ep *Endpoint) {
		if ep.Rank() == 0 {
			req := ep.Isend(1, 3, 2000)
			ep.WaitAll(req)
		} else {
			req := ep.Irecv(0, 3, 2000)
			ep.Proc().Advance(500_000)
			ep.Test(req)
			ep.Proc().Advance(500_000)
			ep.WaitAll(req)
			recvDone = ep.Now()
		}
	})
	// CTS at 500_000 → sender starts data at 500_100 → arrival at
	// 500_100+100+2000 = 502_200 — but the receiver only observes it at
	// its Wait (t=1_000_000).
	if recvDone != 1_000_000 {
		t.Errorf("tested rendezvous observed at %d, want 1000000", recvDone)
	}
}

func TestSenderSideManualProgression(t *testing.T) {
	// The SENDER computes without MPI calls after posting; the CTS comes
	// back promptly (receiver is in Wait) but the data transfer cannot
	// start until the sender's next MPI call.
	var recvDone int64
	run(t, flat(), 2, func(ep *Endpoint) {
		if ep.Rank() == 0 {
			req := ep.Isend(1, 3, 2000)
			ep.Proc().Advance(800_000) // compute, no Test
			ep.WaitAll(req)
		} else {
			req := ep.Irecv(0, 3, 2000)
			ep.WaitAll(req)
			recvDone = ep.Now()
		}
	})
	// CTS arrives at sender ~200; data starts at the sender's Wait
	// (800_000); arrival = 800_000+100+2000 = 802_100.
	if recvDone != 802_100 {
		t.Errorf("sender-stalled rendezvous completed at %d, want 802100", recvDone)
	}
}

func TestNICInjectionSerializes(t *testing.T) {
	// Rank 0 sends two 800-byte eager messages back to back at t=0. The
	// second transmission starts only when the NIC is free at t=800, so it
	// arrives at 800+100+800 = 1700... but the receiver drain also
	// serializes: first arrival 900, second max(900, rxFree=900)+800 = 1700.
	var done [2]int64
	run(t, flat(), 2, func(ep *Endpoint) {
		if ep.Rank() == 0 {
			a := ep.Isend(1, 1, 800)
			b := ep.Isend(1, 2, 800)
			ep.WaitAll(a, b)
		} else {
			a := ep.Irecv(0, 1, 800)
			b := ep.Irecv(0, 2, 800)
			ep.WaitAll(a)
			done[0] = a.CompletedAt()
			ep.WaitAll(b)
			done[1] = b.CompletedAt()
		}
	})
	if done[0] != 900 {
		t.Errorf("first message at %d, want 900", done[0])
	}
	if done[1] != 1700 {
		t.Errorf("second message at %d, want 1700", done[1])
	}
}

func TestReceiverDrainSerializes(t *testing.T) {
	// Two senders, one receiver: both send 600 eager bytes at t=0. Each
	// sender's NIC is free, so both transmissions start at 0 and would
	// arrive at 700; the receiver pipe serializes the second to 1300.
	var times []int64
	run(t, flat(), 3, func(ep *Endpoint) {
		switch ep.Rank() {
		case 0, 1:
			ep.Isend(2, ep.Rank(), 600)
		case 2:
			a := ep.Irecv(0, 0, 600)
			b := ep.Irecv(1, 1, 600)
			ep.WaitAll(a, b)
			times = []int64{a.CompletedAt(), b.CompletedAt()}
		}
	})
	if times[0] != 700 || times[1] != 1300 {
		t.Errorf("drain serialization: got %v, want [700 1300]", times)
	}
}

func TestTestReportsCompletion(t *testing.T) {
	run(t, flat(), 2, func(ep *Endpoint) {
		if ep.Rank() == 0 {
			ep.Isend(1, 1, 10)
			return
		}
		req := ep.Irecv(0, 1, 10)
		// Arrival at 110; a Test at ~0 must say no, a Test after must say yes.
		if ep.Test(req) {
			t.Error("Test reported completion too early")
		}
		ep.Proc().Advance(10_000)
		if !ep.Test(req) {
			t.Error("Test failed to report completion")
		}
	})
}

func TestTestChargesCPU(t *testing.T) {
	m := flat()
	m.Cmp.TestCallNs = 50
	m.Cmp.TestPerReqNs = 10
	run(t, m, 2, func(ep *Endpoint) {
		if ep.Rank() == 0 {
			return
		}
		req := ep.Irecv(0, 1, 10) // never satisfied... but don't Wait on it
		start := ep.Now()
		ep.Test(req)
		if d := ep.Now() - start; d != 60 {
			t.Errorf("Test charged %d ns, want 60", d)
		}
		ep.Test(nil)
		_ = req
	})
}

func TestIntraVsInterNode(t *testing.T) {
	// On a 2-ranks-per-node machine, rank 0↔1 (same node) is faster than
	// rank 0↔2 (cross node).
	m := flat()
	m.CoresPerNode = 2
	m.Net.LatencyInterNs = 10_000
	m.Net.NsPerByteInter = 4
	var intra, inter int64
	run(t, m, 4, func(ep *Endpoint) {
		switch ep.Rank() {
		case 0:
			a := ep.Isend(1, 1, 500)
			b := ep.Isend(2, 2, 500)
			ep.WaitAll(a, b)
		case 1:
			r := ep.Irecv(0, 1, 500)
			ep.WaitAll(r)
			intra = r.CompletedAt()
		case 2:
			r := ep.Irecv(0, 2, 500)
			ep.WaitAll(r)
			inter = r.CompletedAt()
		}
	})
	if !(intra < inter) {
		t.Errorf("intra-node %d should beat inter-node %d", intra, inter)
	}
}

func TestFabricContentionSlowsWideJobs(t *testing.T) {
	// The same point-to-point transfer is slower when the job spans more
	// nodes (bisection contention).
	m := flat()
	m.Net.FabricAlpha = 0.5
	timing := func(p int) int64 {
		var done int64
		run(t, m, p, func(ep *Endpoint) {
			switch ep.Rank() {
			case 0:
				ep.Isend(1, 1, 900)
			case 1:
				r := ep.Irecv(0, 1, 900)
				ep.WaitAll(r)
				done = r.CompletedAt()
			}
		})
		return done
	}
	if narrow, wide := timing(2), timing(8); !(wide > narrow) {
		t.Errorf("contention: %d-node job (%d ns) should be slower than 2-node (%d ns)", 8, wide, narrow)
	}
}

func TestStatsCounted(t *testing.T) {
	f := run(t, flat(), 2, func(ep *Endpoint) {
		if ep.Rank() == 0 {
			a := ep.Isend(1, 1, 10)   // eager
			b := ep.Isend(1, 2, 5000) // rendezvous
			ep.WaitAll(a, b)
		} else {
			a := ep.Irecv(0, 1, 10)
			b := ep.Irecv(0, 2, 5000)
			ep.WaitAll(a, b)
		}
	})
	if f.Stats.EagerMsgs != 1 || f.Stats.RendezvousMsgs != 1 {
		t.Errorf("stats: %+v", f.Stats)
	}
	if f.Stats.BytesMoved != 5010 {
		t.Errorf("bytes moved %d, want 5010", f.Stats.BytesMoved)
	}
}

func TestLocalCopyChargesTime(t *testing.T) {
	m := flat()
	m.Cmp.LocalCopyNsPerByte = 2
	run(t, m, 1, func(ep *Endpoint) {
		start := ep.Now()
		ep.LocalCopy(100)
		if d := ep.Now() - start; d != 200 {
			t.Errorf("LocalCopy charged %d, want 200", d)
		}
	})
}

func TestDeterministicAcrossRuns(t *testing.T) {
	body := func(ep *Endpoint, out *[2]int64) {
		p := 4
		peer := (ep.Rank() + 1) % p
		prev := (ep.Rank() + p - 1) % p
		var reqs []*Req
		for i := 0; i < 5; i++ {
			reqs = append(reqs, ep.Isend(peer, i, 3000), ep.Irecv(prev, i, 3000))
			ep.Proc().Advance(777)
			ep.Test(reqs...)
		}
		ep.WaitAll(reqs...)
		out[0] = ep.Now()
	}
	final := func() [4][2]int64 {
		var outs [4][2]int64
		run(t, flat(), 4, func(ep *Endpoint) { body(ep, &outs[ep.Rank()]) })
		return outs
	}
	a, b := final(), final()
	if a != b {
		t.Errorf("nondeterministic simulation: %v vs %v", a, b)
	}
}

func TestMismatchedRankPanicsIntoError(t *testing.T) {
	f := NewFabric(flat(), 2)
	s := vclock.New(2)
	err := s.Run(func(proc *vclock.Proc) {
		ep := f.Endpoint(proc.ID(), proc)
		if proc.ID() == 0 {
			ep.Isend(5, 0, 10) // invalid rank
		}
	})
	if err == nil {
		t.Error("expected error from invalid destination rank")
	}
}

func TestGroupsCountPending(t *testing.T) {
	run(t, flat(), 2, func(ep *Endpoint) {
		if ep.Rank() == 0 {
			grp := &Group{}
			a := ep.IsendGrp(1, 1, 100, grp) // eager: completes at post
			b := ep.IsendGrp(1, 2, 5000, grp)
			if grp.Pending() != 1 {
				t.Errorf("pending %d after eager send completed, want 1", grp.Pending())
			}
			ep.WaitGroups(grp)
			if !grp.Done() || !a.Done(ep.Now()) || !b.Done(ep.Now()) {
				t.Error("group not complete after WaitGroups")
			}
		} else {
			grp := &Group{}
			ep.IrecvGrp(0, 1, 100, grp)
			ep.IrecvGrp(0, 2, 5000, grp)
			ep.WaitGroups(grp)
			if grp.Pending() != 0 {
				t.Errorf("pending %d after wait", grp.Pending())
			}
		}
	})
}

func TestWaitGroupsNoRequests(t *testing.T) {
	run(t, flat(), 1, func(ep *Endpoint) {
		grp := &Group{}
		before := ep.Now()
		ep.WaitGroups(grp) // empty group: returns after charging call cost
		if ep.Now() < before {
			t.Error("time went backwards")
		}
	})
}

func TestTestNProgresses(t *testing.T) {
	// TestN must fire enabled progression steps just like Test.
	var recvDone int64
	run(t, flat(), 2, func(ep *Endpoint) {
		if ep.Rank() == 0 {
			req := ep.Isend(1, 3, 2000)
			ep.WaitAll(req)
		} else {
			grp := &Group{}
			ep.IrecvGrp(0, 3, 2000, grp)
			ep.Proc().Advance(500_000)
			ep.TestN(grp.Pending())
			ep.WaitGroups(grp)
			recvDone = ep.Now()
		}
	})
	if recvDone >= 1_000_000 {
		t.Errorf("TestN did not release the CTS: done at %d", recvDone)
	}
}

func TestEndpointAccessors(t *testing.T) {
	f := NewFabric(flat(), 2)
	s := vclock.New(2)
	err := s.Run(func(proc *vclock.Proc) {
		ep := f.Endpoint(proc.ID(), proc)
		if ep.Rank() != proc.ID() || ep.Proc() != proc {
			t.Error("accessors wrong")
		}
		if ep.Now() != proc.Now() {
			t.Error("Now mismatch")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateEndpointPanics(t *testing.T) {
	f := NewFabric(flat(), 1)
	s := vclock.New(1)
	err := s.Run(func(proc *vclock.Proc) {
		f.Endpoint(0, proc)
		f.Endpoint(0, proc) // duplicate
	})
	if err == nil {
		t.Error("expected error for duplicate endpoint")
	}
}

func TestBadFabricArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for p=0")
		}
	}()
	NewFabric(flat(), 0)
}

func TestUnmatchedReceivesMatchInPostingOrderPerTag(t *testing.T) {
	// Rank 0 sends three eager messages back to back: tag 5 (100 B, arrives
	// 200), tag 6 (200 B, arrives 400), tag 5 again (300 B, arrives 700).
	// Rank 1 posts tag 5, tag 5, tag 6 at t=250, after the first arrival and
	// before the others: the first receive takes the message already queued,
	// the second waits for the later tag-5 message behind the tag-6 one, and
	// the tag-6 receive is found behind both in the queue.
	var done [3]int64
	run(t, flat(), 2, func(ep *Endpoint) {
		if ep.Rank() == 0 {
			ep.WaitAll(ep.Isend(1, 5, 100), ep.Isend(1, 6, 200), ep.Isend(1, 5, 300))
			return
		}
		ep.Proc().Advance(250)
		reqs := []*Req{ep.Irecv(0, 5, 100), ep.Irecv(0, 5, 300), ep.Irecv(0, 6, 200)}
		ep.WaitAll(reqs...)
		for i, r := range reqs {
			done[i] = r.CompletedAt()
		}
	})
	if want := [3]int64{250, 700, 400}; done != want {
		t.Errorf("receives completed at %v, want %v", done, want)
	}
}

func TestUnmatchedArrivalsOfOtherTagsAreSkipped(t *testing.T) {
	// An eager message (tag 5) and a rendezvous RTS (tag 6, arrives 100)
	// both wait at rank 1, which posts the tag-6 receive first at t=1000:
	// the RTS is taken from behind the eager message. CTS reaches the
	// sender, parked in Wait, at 1100; 5000 B leave its NIC at 6100 and
	// have arrived at 6200.
	var sendDone, recv5, recv6 int64
	run(t, flat(), 2, func(ep *Endpoint) {
		if ep.Rank() == 0 {
			eager, rdv := ep.Isend(1, 5, 100), ep.Isend(1, 6, 5000)
			ep.WaitAll(eager, rdv)
			sendDone = rdv.CompletedAt()
			return
		}
		ep.Proc().Advance(1000)
		r6, r5 := ep.Irecv(0, 6, 5000), ep.Irecv(0, 5, 100)
		ep.WaitAll(r6, r5)
		recv5, recv6 = r5.CompletedAt(), r6.CompletedAt()
	})
	if sendDone != 6100 || recv5 != 1000 || recv6 != 6200 {
		t.Errorf("send done %d, tag-5 recv %d, tag-6 recv %d; want 6100, 1000, 6200", sendDone, recv5, recv6)
	}
}

func TestStepQueueIsReusedInPlace(t *testing.T) {
	// A receiver that progresses only through Test queues one step per
	// rendezvous message (the CTS) and fires it at its next call. Dequeuing
	// by slicing the front off would walk the backing array forward and
	// reallocate it every few messages for the life of the world; the queue
	// must still be the array it first grew.
	var first, last *action
	run(t, flat(), 2, func(ep *Endpoint) {
		for i := 0; i < 100; i++ {
			if ep.Rank() == 0 {
				ep.WaitAll(ep.Isend(1, i, 5000))
				continue
			}
			r := ep.Irecv(0, i, 5000)
			for !ep.Test(r) {
				ep.Proc().Advance(500)
			}
			if q := ep.actions[:1]; i == 0 {
				first = &q[0]
			} else {
				last = &q[0]
			}
		}
	})
	if first != last {
		t.Error("the step queue was reallocated while cycling")
	}
}
