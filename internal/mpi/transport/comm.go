package transport

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"offt/internal/arena"
	"offt/internal/mpi"
	"offt/internal/mpi/sched"
)

// Comm is one local rank's communicator: everything of mpi.Comm but the
// barrier, which each engine builds its own way, plus the optional
// capability interfaces (ExchangeSetter, DeadlineWaiter, HealthReporter)
// and the sched.Port the exchange schedules drive. An engine's Comm embeds
// it. All methods are called only by the rank's own goroutine.
type Comm struct {
	w    *World
	rank int
	seq  int
	ex   mpi.Exchange
	pkt  []complex128   // reusable packet-assembly scratch (Bruck/hier)
	wake *time.Timer    // the parked rank's deadline wake-up, reused across waits
	one  [1]mpi.Request // Alltoallv's request list
	free sched.FreeList // requests Wait freed, for the next posts
}

var (
	_ mpi.DeadlineWaiter = (*Comm)(nil)
	_ mpi.HealthReporter = (*Comm)(nil)
	_ mpi.ExchangeSetter = (*Comm)(nil)
	_ sched.Port         = (*Comm)(nil)
)

// Comm returns local rank r's communicator.
func (w *World) Comm(r int) Comm { return Comm{w: w, rank: r} }

// SetExchange selects the all-to-all schedule for collectives posted from
// now on (mpi.ExchangeSetter). Every rank must apply the same Exchange
// before matching collectives.
func (c *Comm) SetExchange(ex mpi.Exchange) { c.ex = ex }

// Rank returns this rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return c.w.p }

// Now returns wall time since the world was created, in nanoseconds.
func (c *Comm) Now() int64 { return time.Since(c.w.epoch).Nanoseconds() }

// TransportHealth returns the world's recovery counters (the overlapped
// pipeline consults them to detect persistent transport faults).
func (c *Comm) TransportHealth() mpi.Health { return c.w.Health() }

// ---- sched.Port -------------------------------------------------------------
//
// The schedule state machines (package mpi/sched) drive the transport
// through this surface; these methods exist for them, not for FFT code.

// NextTags reserves n consecutive collective sequence numbers for a
// multi-message schedule (one per Bruck round, one per hierarchical
// protocol phase) so deliveries of different rounds can never be confused
// even when the transport reorders them.
func (c *Comm) NextTags(n int) int {
	t := c.seq
	c.seq += n
	return t
}

// Send hands one block from this rank to dst to the transport, which
// copies it before returning.
func (c *Comm) Send(dst, tag int, data []complex128) { c.w.send(c.rank, dst, tag, data) }

// TryClaim removes the first mailbox message from (src, tag) and passes
// its payload to the caller, who owns it until Release.
func (c *Comm) TryClaim(src, tag int) *arena.Slab {
	w := c.w
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.boxes[c.rank].Claim(src, tag)
}

// Release returns a claimed payload to the arena (a no-op for the aliased
// payloads of a fault plan).
func (c *Comm) Release(payload *arena.Slab) { payload.Release() }

// Queued reports whether a message from (src, tag) is in the mailbox.
// Called with the world lock held (await's park predicate).
func (c *Comm) Queued(src, tag int) bool { return c.w.boxes[c.rank].Has(src, tag) }

// Scratch returns the rank's reusable packet-assembly buffer, grown to n.
func (c *Comm) Scratch(n int) []complex128 {
	if cap(c.pkt) < n {
		c.pkt = make([]complex128, n)
	}
	return c.pkt[:n]
}

// NodeSize is the machine model's ranks-per-node grouping, the default for
// the hierarchical schedule when the Exchange does not pin one.
func (c *Comm) NodeSize() int { return c.w.cfg.Machine.CoresPerNode }

// FreeList is the rank's list of requests its Waits freed, which Post
// reuses.
func (c *Comm) FreeList() *sched.FreeList { return &c.free }

// ---- collectives ------------------------------------------------------------

// Ialltoallv starts a non-blocking all-to-all under the configured exchange
// schedule (SetExchange; pairwise by default). The send buffer is copied
// out, once, as messages are handed to the transport; inbound blocks are
// copied into recv during Test/Wait (the caller's CPU does the progression
// work, like the paper's manual progression). All schedules deliver
// bit-identical receive buffers (see package mpi/sched). The handle is
// the caller's until a Wait consumes it.
func (c *Comm) Ialltoallv(send []complex128, sendCounts []int, recv []complex128, recvCounts []int) mpi.Request {
	return sched.Post(c, c.ex, send, sendCounts, recv, recvCounts)
}

// Alltoallv performs a blocking all-to-all.
func (c *Comm) Alltoallv(send []complex128, sendCounts []int, recv []complex128, recvCounts []int) {
	c.one[0] = c.Ialltoallv(send, sendCounts, recv, recvCounts)
	c.Wait(c.one[:]...)
	c.one[0] = nil
}

// Test drains whatever has arrived and reports completion.
func (c *Comm) Test(reqs ...mpi.Request) bool { return sched.DrainAll(reqs) }

// Wait blocks until all requests complete, draining as messages arrive,
// and then frees them, as MPI_Wait does: the rank's next posts reuse them,
// and passing one to Wait again panics. A wait longer than the world's
// hang timeout, if it has one, panics with a WorldFailure wrapping a
// *DeadlineError instead of hanging.
func (c *Comm) Wait(reqs ...mpi.Request) {
	if err := c.await(reqs, c.w.cfg.HangTimeout); err != nil {
		panic(WorldFailure{fmt.Errorf("hang timeout: %w", err)})
	}
	c.free.Free(reqs)
}

// WaitDeadline blocks like Wait but gives up once the world's soft
// deadline (WithDeadline) passes, returning a *DeadlineError that names
// the collectives and source ranks still missing. It frees nothing: the
// requests stay valid whether it returns nil or not, and a subsequent
// Wait continues from where WaitDeadline left off (at once, for requests
// already complete) and frees them. Without a configured deadline it is
// exactly Wait, and frees them.
func (c *Comm) WaitDeadline(reqs ...mpi.Request) error {
	if c.w.cfg.Deadline <= 0 {
		c.Wait(reqs...)
		return nil
	}
	return c.await(reqs, c.w.cfg.Deadline)
}

// await drains until every request completes (nil) or a positive limit
// passes (a *DeadlineError), parking the rank on its condition variable
// while its mailbox holds nothing the requests can use. A failed world
// panics it awake with the WorldFailure.
func (c *Comm) await(reqs []mpi.Request, limit time.Duration) error {
	w := c.w
	var deadline time.Time
	if limit > 0 {
		deadline = time.Now().Add(limit)
		// The cond has no timed wait: a timer wakes this rank so the loop
		// can observe the deadline. Only the rank's own goroutine waits, so
		// every wait re-arms one timer; a stale firing is a spurious wake-up.
		if c.wake == nil {
			c.wake = time.AfterFunc(limit, func() {
				w.mu.Lock()
				w.conds[c.rank].Broadcast()
				w.mu.Unlock()
			})
		} else {
			c.wake.Reset(limit)
		}
		defer c.wake.Stop()
	}
	for {
		if sched.DrainAll(reqs) {
			return nil
		}
		w.mu.Lock()
		if w.failed != nil {
			err := w.failed
			w.mu.Unlock()
			panic(WorldFailure{err})
		}
		if limit > 0 && !time.Now().Before(deadline) {
			err := &DeadlineError{Engine: w.cfg.Name, Rank: c.rank, Timeout: limit, Missing: missingBlocks(reqs)}
			w.mu.Unlock()
			return err
		}
		if !sched.AnyQueued(reqs) {
			w.parked[c.rank] = reqs
			w.conds[c.rank].Wait()
			w.parked[c.rank] = nil
		}
		w.mu.Unlock()
	}
}

// ---- diagnostics ------------------------------------------------------------

// DeadlineError reports a wait that exceeded its limit: which collectives
// (by sequence number) are incomplete and which source ranks' blocks are
// missing.
type DeadlineError struct {
	Engine  string
	Rank    int
	Timeout time.Duration
	Missing []MissingBlocks
}

// MissingBlocks names one incomplete collective of a timed-out wait.
type MissingBlocks struct {
	Seq  int   // collective sequence number
	From []int // source ranks whose blocks have not arrived
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("%s: rank %d: wait deadline %v exceeded:%s", e.Engine, e.Rank, e.Timeout, describe(e.Missing))
}

// describe renders what a wait still misses, one clause per collective.
func describe(missing []MissingBlocks) string {
	var sb strings.Builder
	for _, m := range missing {
		fmt.Fprintf(&sb, " collective seq %d missing blocks from ranks %v;", m.Seq, m.From)
	}
	return strings.TrimSuffix(sb.String(), ";")
}

// missingBlocks summarizes the incomplete requests of a rank that is not
// running (it is parked, or holds the world lock), ordered by sequence
// number.
func missingBlocks(reqs []mpi.Request) []MissingBlocks {
	var missing []MissingBlocks
	for _, r := range reqs {
		if r == nil {
			continue
		}
		if seqs, from := r.(sched.Request).Missing(); len(seqs) > 0 {
			from = slices.Clone(from)
			slices.Sort(from)
			missing = append(missing, MissingBlocks{Seq: seqs[0], From: from})
		}
	}
	slices.SortFunc(missing, func(a, b MissingBlocks) int { return a.Seq - b.Seq })
	return missing
}
