package sim

import (
	"hash/fnv"
	"io"
	"strings"
	"testing"

	"offt/internal/machine"
	"offt/internal/mpi"
	"offt/internal/simnet"
)

// pinCount is the scripted ragged block size, in elements, rank src sends
// rank dst in collective number it. On Hopper (8 KiB eager threshold,
// 64 KiB rendezvous chunks) the four sizes are an eager block, a
// single-chunk rendezvous, a larger one and a three-chunk one.
func pinCount(src, dst, it int) int {
	return [4]int{40, 600, 3000, 9000}[(3*src+5*dst+it)%4]
}

// TestScriptedTracePinned holds the whole simulator stack — vclock's total
// order, simnet's protocol and the four sim schedules — to values recorded
// before the scheduler was rewritten: the FNV-64a of every scheduler trace
// line in order, the per-rank final clocks and the fabric counters of one
// fixed script. The determinism tests compare two runs of one binary and
// cannot see a change that reorders consistently; this can.
func TestScriptedTracePinned(t *testing.T) {
	const p = 4
	w := NewWorld(machine.Hopper(), p)
	h := fnv.New64a()
	lines := 0
	kinds := map[string]int{}
	w.sched.TraceFn = func(line string) {
		io.WriteString(h, line)
		io.WriteString(h, "\n")
		lines++
		kinds[line[:strings.IndexByte(line, ' ')]]++
	}
	var ends [p]int64
	err := w.Run(func(c *Comm) {
		rank := c.Rank()
		send, recv := make([]int, p), make([]int, p)
		it := 0
		for _, ex := range []mpi.Exchange{
			{Alg: mpi.CommPairwise},
			{Alg: mpi.CommBruck},
			{Alg: mpi.CommHier, NodeSize: 2},
			{Alg: mpi.CommWindowed, Window: 1},
		} {
			c.SetExchange(ex)
			// Three collectives, the second posted while the first is still
			// in flight (the NEW pipeline's window), Test bursts between
			// post and wait.
			var prev mpi.Request
			for k := 0; k < 3; k++ {
				for r := 0; r < p; r++ {
					send[r], recv[r] = pinCount(rank, r, it), pinCount(r, rank, it)
				}
				it++
				req := c.Ialltoallv(nil, send, nil, recv)
				for b := 0; b < 3+rank%2; b++ {
					c.Advance(int64(7_000 + 1_300*rank + 500*b))
					c.Test(prev, req)
				}
				if prev != nil {
					c.Wait(prev)
				}
				prev = req
			}
			c.Wait(prev)
		}
		c.Barrier()
		// One rendezvous-sized and one eager-sized point-to-point message.
		switch rank {
		case 0:
			c.ep.WaitAll(c.ep.Isend(1, 1000, 100_000))
		case 1:
			c.Advance(30_000)
			c.ep.WaitAll(c.ep.Irecv(0, 1000, 100_000))
		case 2:
			c.ep.WaitAll(c.ep.Isend(3, 1001, 64))
		case 3:
			r := c.ep.Irecv(2, 1001, 64)
			for !c.ep.Test(r) {
				c.Advance(2_000)
			}
		}
		ends[rank] = c.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	const wantHash, wantLines = uint64(0x7d9ec887169e381c), 1300
	if got := h.Sum64(); got != wantHash || lines != wantLines {
		t.Errorf("trace moved: fnv64a %#x over %d lines %v, want %#x over %d", got, lines, kinds, wantHash, wantLines)
	}
	if want := [p]int64{1488790, 1489190, 1430178, 1433650}; ends != want {
		t.Errorf("final clocks %v, want %v", ends, want)
	}
	if got, want := w.Fabric().Stats, (simnet.Stats{EagerMsgs: 31, RendezvousMsgs: 105, BytesMoved: 8928648, TestCalls: 171}); got != want {
		t.Errorf("fabric stats %+v, want %+v", got, want)
	}
}
