// Package sim implements the mpi.Comm interface on top of the virtual-time
// fabric of package simnet. No payload moves: operations carry byte counts
// only, and every cost (posting, transfer, progression, MPI_Test overhead)
// is charged to the rank's virtual clock from the machine model. The
// simulation is deterministic.
package sim

import (
	"fmt"

	"offt/internal/machine"
	"offt/internal/mpi"
	"offt/internal/mpi/fault"
	"offt/internal/simnet"
	"offt/internal/vclock"
)

// World is a simulated job: p ranks in virtual time on one machine model.
type World struct {
	Mach   machine.Machine
	P      int
	fabric *simnet.Fabric
	sched  *vclock.Scheduler
}

// NewWorld creates a simulated world of p ranks on machine m.
func NewWorld(m machine.Machine, p int) *World {
	return &World{
		Mach:   m,
		P:      p,
		fabric: simnet.NewFabric(m, p),
		sched:  vclock.New(p),
	}
}

// Fabric exposes the underlying fabric (for statistics).
func (w *World) Fabric() *simnet.Fabric { return w.fabric }

// InjectFaults attaches a fault plan to the fabric: NIC stall windows and
// slow-NIC / link degradation apply in virtual time. Per-message payload
// faults are meaningless here (no payload moves) and are ignored. Must be
// called before Run.
func (w *World) InjectFaults(plan *fault.Plan) { w.fabric.SetFaults(plan) }

// Run executes body once per rank and returns when all ranks finish. A
// World runs once: a second call returns an error.
func (w *World) Run(body func(c *Comm)) error {
	return w.sched.Run(func(proc *vclock.Proc) {
		ep := w.fabric.Endpoint(proc.ID(), proc)
		body(&Comm{world: w, ep: ep, proc: proc})
	})
}

// Comm is one simulated rank's communicator.
type Comm struct {
	world *World
	ep    *simnet.Endpoint
	proc  *vclock.Proc
	seq   int // collective sequence number, consumed as the tag space
	ex    mpi.Exchange
}

var (
	_ mpi.Comm           = (*Comm)(nil)
	_ mpi.ExchangeSetter = (*Comm)(nil)
)

// SetExchange selects the all-to-all schedule for collectives posted from
// now on (mpi.ExchangeSetter). Every rank must apply the same Exchange
// before matching collectives (SPMD).
func (c *Comm) SetExchange(ex mpi.Exchange) { c.ex = ex }

// Rank returns this rank.
func (c *Comm) Rank() int { return c.ep.Rank() }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.world.P }

// Now returns the rank's virtual time in nanoseconds.
func (c *Comm) Now() int64 { return c.proc.Now() }

// Advance charges d nanoseconds of local computation to this rank. It is
// the hook the cost-model kernels use.
func (c *Comm) Advance(d int64) { c.proc.Advance(d) }

// Proc exposes the vclock process (for advanced uses in tests).
func (c *Comm) Proc() *vclock.Proc { return c.proc }

// simReq is the engine-side request contract every schedule implements.
// All methods are called by the owning rank's process only.
type simReq interface {
	// advance posts any newly-eligible protocol stage (next Bruck round,
	// hierarchical phase transition, windowed send release) and reports
	// completion. Called from Test and the wait loops; must be idempotent
	// once complete.
	advance() bool
	// pendingCount returns the incomplete point-to-point halves currently
	// outstanding, for Test's per-request cost model.
	pendingCount() int
	// wait blocks until the request completes, advancing stages as their
	// completion groups drain.
	wait()
}

// request implements mpi.Request for the pairwise schedule: one completion
// group covering all the collective's point-to-point halves.
type request struct {
	c   *Comm
	grp *simnet.Group
}

func (r *request) advance() bool     { return r.grp.Done() }
func (r *request) pendingCount() int { return r.grp.Pending() }
func (r *request) wait()             { r.c.ep.WaitGroups(r.grp) }

func (c *Comm) nextTag() int {
	t := c.seq
	c.seq++
	return t
}

// nextTags reserves n consecutive sequence numbers for a multi-message
// schedule (one per Bruck round, one per hierarchical protocol phase).
// Consumption depends only on p and the configured schedule, so it stays
// uniform across ranks.
func (c *Comm) nextTags(n int) int {
	t := c.seq
	c.seq += n
	return t
}

// Ialltoallv starts a non-blocking all-to-all using the configured exchange
// schedule (SetExchange; pairwise by default). Buffers are ignored (may be
// nil); only the counts matter. The local block is charged as a memcpy.
func (c *Comm) Ialltoallv(send []complex128, sendCounts []int, recv []complex128, recvCounts []int) mpi.Request {
	p := c.Size()
	if len(sendCounts) != p || len(recvCounts) != p {
		panic(fmt.Sprintf("sim: counts length %d/%d, want %d", len(sendCounts), len(recvCounts), p))
	}
	if p > 1 {
		switch c.ex.Alg {
		case mpi.CommBruck:
			return c.postBruck(sendCounts, recvCounts)
		case mpi.CommHier:
			return c.postHier(sendCounts, recvCounts)
		case mpi.CommWindowed:
			if w := c.window(); w < p-1 {
				return c.postWindowed(sendCounts, recvCounts, w)
			}
		}
	}
	return c.postPairwise(sendCounts, recvCounts)
}

// postPairwise is the historical eager schedule.
func (c *Comm) postPairwise(sendCounts, recvCounts []int) *request {
	p, rank := c.Size(), c.Rank()
	tag := c.nextTag()
	req := &request{c: c, grp: &simnet.Group{}}
	// Round-robin peer schedule (libNBC style): receives posted before the
	// matching-distance send so inbound RTS always finds a posted receive.
	// Zero-count blocks are skipped entirely, so sub-grid collectives (the
	// pencil decomposition's row/column exchanges) cost only their real
	// peers.
	for i := 1; i < p; i++ {
		src := (rank - i + p) % p
		dst := (rank + i) % p
		if recvCounts[src] > 0 {
			c.ep.IrecvGrp(src, tag, recvCounts[src]*mpi.Elem16, req.grp)
		}
		if sendCounts[dst] > 0 {
			c.ep.IsendGrp(dst, tag, sendCounts[dst]*mpi.Elem16, req.grp)
		}
	}
	if sendCounts[rank] > 0 {
		c.ep.LocalCopy(sendCounts[rank] * mpi.Elem16)
	}
	return req
}

// Alltoallv performs a blocking all-to-all.
func (c *Comm) Alltoallv(send []complex128, sendCounts []int, recv []complex128, recvCounts []int) {
	r := c.Ialltoallv(send, sendCounts, recv, recvCounts)
	c.Wait(r)
}

// Test progresses communication, advances every request's schedule state
// machine, and reports whether all requests are done.
func (c *Comm) Test(reqs ...mpi.Request) bool {
	active := 0
	for _, r := range reqs {
		if r != nil {
			active += toRequest(r).pendingCount()
		}
	}
	c.ep.TestN(active)
	all := true
	for _, r := range reqs {
		if r != nil && !toRequest(r).advance() {
			all = false
		}
	}
	return all
}

// Wait blocks until all requests complete. Requests are waited in argument
// order; since collectives are SPMD the order is identical on every rank,
// and the endpoint progresses all protocol traffic while parked, so
// sequential waiting cannot deadlock.
func (c *Comm) Wait(reqs ...mpi.Request) {
	for _, r := range reqs {
		if r != nil {
			toRequest(r).wait()
		}
	}
}

func toRequest(r mpi.Request) simReq {
	rr, ok := r.(simReq)
	if !ok {
		panic(fmt.Sprintf("sim: foreign request type %T", r))
	}
	return rr
}

// Barrier is a dissemination barrier over 1-byte eager messages.
func (c *Comm) Barrier() {
	p, rank := c.Size(), c.Rank()
	for k := 1; k < p; k <<= 1 {
		tag := c.nextTag()
		dst := (rank + k) % p
		src := (rank - k + p) % p
		rr := c.ep.Irecv(src, tag, 1)
		sr := c.ep.Isend(dst, tag, 1)
		c.ep.WaitAll(rr, sr)
	}
}
