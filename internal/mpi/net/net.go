// Package net implements the mpi.Comm interface across OS processes: a
// World spans one rank per process, connected pairwise by TCP over a
// full mesh formed at bootstrap (package-level Join; one coordinator
// address + a rank handshake). It is the third engine next to mem
// (goroutine ranks, shared-memory mailbox) and sim (virtual time).
//
// The transport speaks the shared envelope protocol (package
// mpi/envelope): length-prefixed frames carrying sequence-numbered,
// checksummed payloads, acknowledged by the receiver and, when a fault
// plan is attached, retransmitted with capped exponential backoff by the
// sender. TCP already guarantees delivery — the protocol layer exists so
// the existing fault-injection surfaces (mpi/fault chaos profiles: drops,
// corruption, duplication, NIC stalls) work unchanged above the socket,
// and so a lost peer process converts into a prompt world failure instead
// of a hang. Frames and decoded payloads are arena buffers with one owner
// at a time (see World.send and World.deliverData).
//
// All four exchange schedules (pairwise, windowed, Bruck, hierarchical;
// package mpi/sched) run over this engine bit-identically to the mem
// engine: the schedules are shared code and the mailbox semantics are
// identical.
package net

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"offt/internal/arena"
	"offt/internal/machine"
	"offt/internal/mpi"
	"offt/internal/mpi/envelope"
	"offt/internal/mpi/fault"
	"offt/internal/mpi/sched"
	"offt/internal/telemetry"
)

// Option configures a World at Join time.
type Option func(*World)

// WithFaults attaches a deterministic fault plan to the transport:
// injected drops, corruptions, duplicates and stalls are applied above
// the socket, recovered by the envelope protocol. Attach it to every rank
// of a world or to none: a rank without one cannot recover a corrupted
// delivery (see World.deliverData).
func WithFaults(plan *fault.Plan) Option {
	return func(w *World) {
		if plan != nil {
			w.plan = plan
		}
	}
}

// WithDeadline sets the soft deadline used by Comm.WaitDeadline: when a
// wait exceeds d, WaitDeadline returns a *DeadlineError describing the
// missing blocks instead of blocking further. Plain Wait is unaffected.
func WithDeadline(d time.Duration) Option {
	return func(w *World) { w.deadline = d }
}

// WithHangTimeout sets the hard limit on every Wait and Barrier call;
// past it the world fails with a diagnostic error instead of hanging.
// Unlike the mem engine there is no global deadlock watchdog (no process
// can see the whole world), so the per-call limit is always armed — the
// default is 20s. d <= 0 disables it.
func WithHangTimeout(d time.Duration) Option {
	return func(w *World) { w.hangTimeout = d }
}

// WithRetransmitTimeout sets the base retransmission timeout of the
// envelope protocol (default 25ms; backoff doubles it per attempt up to
// 16×). Mostly interesting under fault injection — without injected
// drops, acks win the race against the timer.
func WithRetransmitTimeout(d time.Duration) Option {
	return func(w *World) {
		if d > 0 {
			w.rto = d
		}
	}
}

// WithMachine sets the machine model used for topology defaults (the
// hierarchical schedule's ranks-per-node grouping). No delay emulation is
// applied — the wire is real.
func WithMachine(m machine.Machine) Option {
	return func(w *World) { w.mach = m }
}

// defaultHangTimeout mirrors the mem engine's watchdog default.
const defaultHangTimeout = 20 * time.Second

// World is this process's membership in a multi-process job: one local
// rank, p-1 peer connections. Create it with Join; a World runs one body
// (Run) and is then closed.
type World struct {
	rank, p int
	epoch   time.Time
	mach    machine.Machine

	plan        *fault.Plan
	rto         time.Duration
	deadline    time.Duration // soft deadline for WaitDeadline; 0 = disabled
	hangTimeout time.Duration // hard per-call limit; <= 0 = disabled

	mu     sync.Mutex
	cond   *sync.Cond
	box    envelope.Mailbox
	dedup  []envelope.Dedup // by source rank: exact, bounded duplicate filter per inbound link
	failed error
	closed bool
	done   bool // Run completed (teardown barrier passed)

	// nextID and linkSeq (by destination rank, contiguous from 1) belong
	// to the rank's own goroutine, the only sender.
	nextID      int64
	linkSeq     []int64
	outstanding map[int64]*outMsg

	peers []*peer     // indexed by rank; peers[w.rank] == nil
	wake  *time.Timer // the parked rank's deadline wake-up, reused across waits
	wg    sync.WaitGroup

	stats envelope.Counters
}

// Rank returns this process's rank in the world.
func (w *World) Rank() int { return w.rank }

// Size returns the number of ranks (processes) in the world.
func (w *World) Size() int { return w.p }

// Health returns a snapshot of the world's transport-recovery counters.
func (w *World) Health() mpi.Health { return w.stats.Snapshot() }

// RegisterTelemetry bridges the transport-recovery counters into a
// telemetry registry under "net.transport.*" (same counter set as the mem
// engine's "mem.transport.*"; see envelope.Counters).
func (w *World) RegisterTelemetry(r *telemetry.Registry) { w.stats.Register(r, "net") }

// WorldFailure is the panic payload a failed world delivers to the rank
// blocked in Wait or Barrier, mirroring the mem engine's semantics. Run
// unwraps it into a plain error.
type WorldFailure struct{ Err error }

func (f WorldFailure) Error() string { return f.Err.Error() }

// PeerError is the failure cause when a peer's connection dies on a live
// world: the survivors surface it promptly instead of hanging.
type PeerError struct {
	Rank int // local rank observing the loss
	Peer int // rank whose connection died
	Err  error
}

func (e *PeerError) Error() string {
	return fmt.Sprintf("net: rank %d: world failed: connection to rank %d lost: %v", e.Rank, e.Peer, e.Err)
}

func (e *PeerError) Unwrap() error { return e.Err }

// fail marks the world failed with cause and wakes the parked rank.
// Idempotent: only the first failure sticks.
func (w *World) fail(cause error) {
	w.mu.Lock()
	if w.failed == nil && !w.closed {
		w.failed = cause
		w.cond.Broadcast()
	}
	w.mu.Unlock()
}

// Fail is the administrative kill switch (mirrors mem.World.Fail).
func (w *World) Fail(cause error) {
	if cause == nil {
		cause = fmt.Errorf("net: world failed")
	}
	w.fail(cause)
}

// Failed reports the world's failure cause (nil while healthy).
func (w *World) Failed() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.failed
}

// Run executes body on this process's rank and returns when it finishes.
// A teardown barrier after body keeps the process alive until every rank's
// body returned, so no peer tears its connections down under a still-
// working world. A panic in body — including the WorldFailure a failed
// world raises — is returned as an error. A World runs one body; call
// Close afterwards.
func (w *World) Run(body func(c *Comm)) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			if wf, ok := rec.(WorldFailure); ok {
				err = wf.Err
			} else {
				err = fmt.Errorf("net: rank %d panicked: %v", w.rank, rec)
			}
		}
	}()
	c := &Comm{w: w}
	body(c)
	c.Barrier()
	w.mu.Lock()
	w.done = true
	w.mu.Unlock()
	return nil
}

// Close tears the world down. After a completed Run (teardown barrier
// passed) the shutdown is graceful: the unacked window drains first
// (bounded), then each writer flushes what is queued — final barrier
// tokens, acks — then a fin departure marker, half-closes its
// connection (TCP FIN), and the readers drain each peer's stream to
// EOF before the sockets close fully. Draining both directions keeps
// either side from closing with unread data (which would RST the
// connection and destroy in-flight frames on the peer). After a failed or
// never-run world the teardown is abrupt — peers see an EOF with no fin
// and fail promptly, which is exactly the killed-process semantics.
// Idempotent.
func (w *World) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	graceful := w.done && w.failed == nil
	if graceful {
		// Drain the unacked window before declaring the world closed. A
		// rank can pass the teardown barrier while a peer is still inside
		// it, waiting on this rank's final token — under fault injection
		// that token may still need retransmission cycles, and cancelling
		// its timer below would destroy it and hang the peer.
		deadline := time.Now().Add(2 * time.Second)
		for len(w.outstanding) > 0 && w.failed == nil && time.Now().Before(deadline) {
			w.mu.Unlock()
			time.Sleep(time.Millisecond)
			w.mu.Lock()
		}
		graceful = w.failed == nil
	}
	w.closed = true
	for id, om := range w.outstanding {
		if om.timer != nil {
			om.timer.Stop()
		}
		delete(w.outstanding, id)
	}
	w.cond.Broadcast()
	w.mu.Unlock()
	for _, pe := range w.peers {
		if pe == nil {
			continue
		}
		if graceful {
			pe.enqueue(outFrame{b: envelope.AppendFin(nil)})
		}
		pe.beginClose()
	}
	flushed := make(chan struct{})
	go func() {
		for _, pe := range w.peers {
			if pe != nil {
				<-pe.done
			}
		}
		close(flushed)
	}()
	select {
	case <-flushed:
	case <-time.After(2 * time.Second):
	}
	readersDone := make(chan struct{})
	go func() {
		w.wg.Wait()
		close(readersDone)
	}()
	if graceful {
		// Give every peer's stream the chance to drain to EOF before the
		// hard close below can discard it.
		select {
		case <-readersDone:
		case <-time.After(2 * time.Second):
		}
	}
	for _, pe := range w.peers {
		if pe != nil {
			pe.conn.Close()
		}
	}
	<-readersDone
	return nil
}

// Comm is the local rank's communicator. It implements mpi.Comm plus the
// optional capability interfaces (ExchangeSetter, DeadlineWaiter,
// HealthReporter) so pfft/pencil plans run over it unchanged.
type Comm struct {
	w   *World
	seq int
	ex  mpi.Exchange
	pkt []complex128 // reusable packet-assembly scratch (Bruck/hier)
}

var (
	_ mpi.Comm           = (*Comm)(nil)
	_ mpi.DeadlineWaiter = (*Comm)(nil)
	_ mpi.HealthReporter = (*Comm)(nil)
	_ mpi.ExchangeSetter = (*Comm)(nil)
	_ sched.Port         = (*Comm)(nil)
)

// SetExchange selects the all-to-all schedule for collectives posted from
// now on (mpi.ExchangeSetter). Every rank must apply the same Exchange
// before matching collectives.
func (c *Comm) SetExchange(ex mpi.Exchange) { c.ex = ex }

// Rank returns this process's rank.
func (c *Comm) Rank() int { return c.w.rank }

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return c.w.p }

// Now returns wall time since the world was joined, in nanoseconds.
func (c *Comm) Now() int64 { return time.Since(c.w.epoch).Nanoseconds() }

// TransportHealth returns the world's recovery counters.
func (c *Comm) TransportHealth() mpi.Health { return c.w.Health() }

// ---- sched.Port implementation --------------------------------------------

// NextTags reserves n consecutive collective sequence numbers (the SPMD
// tag-alignment contract).
func (c *Comm) NextTags(n int) int {
	t := c.seq
	c.seq += n
	return t
}

// Send hands one block to the transport, which encodes it into a frame of
// its own before returning (see World.send).
func (c *Comm) Send(dst, tag int, data []complex128) { c.w.send(dst, tag, data) }

// TryClaim removes the first mailbox message from (src, tag) and passes
// its payload to the caller, who owns it until Release.
func (c *Comm) TryClaim(src, tag int) *arena.Slab {
	c.w.mu.Lock()
	defer c.w.mu.Unlock()
	return c.w.box.Claim(src, tag)
}

// Release returns a claimed payload to the arena.
func (c *Comm) Release(payload *arena.Slab) { payload.Release() }

// Queued reports whether a message from (src, tag) is in the mailbox.
// Called with w.mu held (the wait loop's park predicate).
func (c *Comm) Queued(src, tag int) bool { return c.w.box.Has(src, tag) }

// Scratch returns the rank's reusable packet-assembly buffer, grown to n.
func (c *Comm) Scratch(n int) []complex128 {
	if cap(c.pkt) < n {
		c.pkt = make([]complex128, n)
	}
	return c.pkt[:n]
}

// NodeSize is the machine model's ranks-per-node grouping, the default
// for the hierarchical schedule when the Exchange does not pin one.
func (c *Comm) NodeSize() int { return c.w.mach.CoresPerNode }

// ---- collectives ------------------------------------------------------------

// Ialltoallv starts a non-blocking all-to-all under the configured
// exchange schedule (see package mpi/sched; pairwise by default).
func (c *Comm) Ialltoallv(send []complex128, sendCounts []int, recv []complex128, recvCounts []int) mpi.Request {
	return sched.Post(c, c.ex, send, sendCounts, recv, recvCounts)
}

// Alltoallv performs a blocking all-to-all.
func (c *Comm) Alltoallv(send []complex128, sendCounts []int, recv []complex128, recvCounts []int) {
	r := c.Ialltoallv(send, sendCounts, recv, recvCounts)
	c.Wait(r)
}

// Test drains whatever has arrived and reports completion.
func (c *Comm) Test(reqs ...mpi.Request) bool {
	return sched.DrainAll(reqs)
}

// Wait blocks until all requests complete, draining as frames arrive. A
// wait exceeding the hang timeout fails the world with a diagnostic error
// instead of hanging (there is no global watchdog across processes).
func (c *Comm) Wait(reqs ...mpi.Request) {
	if err := c.waitInner(reqs, c.w.hangTimeout, true); err != nil {
		panic(WorldFailure{err})
	}
}

// WaitDeadline blocks like Wait but gives up once the world's soft
// deadline (WithDeadline) passes, returning a *DeadlineError naming the
// collectives and source ranks still missing. The requests stay valid: a
// subsequent Wait continues from where WaitDeadline left off. Without a
// configured deadline it is exactly Wait.
func (c *Comm) WaitDeadline(reqs ...mpi.Request) error {
	if c.w.deadline <= 0 {
		c.Wait(reqs...)
		return nil
	}
	return c.waitInner(reqs, c.w.deadline, false)
}

// waitInner drains until every request completes or the limit passes.
// hard limits convert into world failures (via the caller's panic);
// soft ones return a *DeadlineError.
func (c *Comm) waitInner(reqs []mpi.Request, limit time.Duration, hard bool) error {
	w := c.w
	var deadline time.Time
	if limit > 0 {
		deadline = time.Now().Add(limit)
		// The cond has no timed wait: a timer wakes this rank so the loop
		// can observe the deadline. Only the rank's own goroutine waits, so
		// every wait re-arms one timer; a stale firing is a spurious wake-up.
		if w.wake == nil {
			w.wake = time.AfterFunc(limit, func() {
				w.mu.Lock()
				w.cond.Broadcast()
				w.mu.Unlock()
			})
		} else {
			w.wake.Reset(limit)
		}
		defer w.wake.Stop()
	}
	for {
		if c.Test(reqs...) {
			return nil
		}
		w.mu.Lock()
		if w.failed != nil {
			err := w.failed
			w.mu.Unlock()
			panic(WorldFailure{err})
		}
		if limit > 0 && !time.Now().Before(deadline) {
			err := c.deadlineErr(reqs, limit, hard)
			w.mu.Unlock()
			return err
		}
		if !sched.AnyQueued(reqs) {
			w.cond.Wait()
		}
		w.mu.Unlock()
	}
}

// Barrier blocks until all ranks arrive: a dissemination barrier of
// ⌈log2 p⌉ token rounds over the ordinary transport (so it works across
// processes, recovers under fault injection, and respects the SPMD tag
// sequence). No rank leaves before every rank has entered.
func (c *Comm) Barrier() {
	w := c.w
	p := w.p
	if p == 1 {
		return
	}
	rounds := 0
	for (1 << rounds) < p {
		rounds++
	}
	base := c.NextTags(rounds)
	token := []complex128{complex(1, 0)}
	for k := 0; k < rounds; k++ {
		dst := (c.w.rank + (1 << k)) % p
		src := (c.w.rank - (1 << k) + p) % p
		w.send(dst, base+k, token)
		c.claimBlocking(src, base+k, fmt.Sprintf("Barrier round %d/%d", k+1, rounds)).Release()
	}
}

// claimBlocking waits for one message from (src, tag), honoring the hang
// timeout and world-failure semantics. The caller owns the payload.
func (c *Comm) claimBlocking(src, tag int, what string) *arena.Slab {
	w := c.w
	var deadline time.Time
	if w.hangTimeout > 0 {
		deadline = time.Now().Add(w.hangTimeout)
		timer := time.AfterFunc(w.hangTimeout, func() {
			w.mu.Lock()
			w.cond.Broadcast()
			w.mu.Unlock()
		})
		defer timer.Stop()
	}
	for {
		if payload := c.TryClaim(src, tag); payload != nil {
			return payload
		}
		w.mu.Lock()
		if w.failed != nil {
			err := w.failed
			w.mu.Unlock()
			panic(WorldFailure{err})
		}
		if w.hangTimeout > 0 && !time.Now().Before(deadline) {
			w.mu.Unlock()
			panic(WorldFailure{fmt.Errorf("net: rank %d: %s timed out after %v waiting on rank %d (collective seq %d)",
				w.rank, what, w.hangTimeout, src, tag)})
		}
		if !w.box.Has(src, tag) {
			w.cond.Wait()
		}
		w.mu.Unlock()
	}
}

// ---- diagnostics ------------------------------------------------------------

// DeadlineError reports a Wait that exceeded its limit: which collectives
// (by sequence number) are incomplete and which source ranks' blocks are
// missing. Shape mirrors the mem engine's DeadlineError.
type DeadlineError struct {
	Rank    int
	Timeout time.Duration
	Hard    bool // true when raised by the hang timeout, not the soft deadline
	Missing []MissingBlocks
}

// MissingBlocks names one incomplete collective of a timed-out wait.
type MissingBlocks struct {
	Seq  int   // collective sequence number
	From []int // source ranks whose blocks have not arrived
}

func (e *DeadlineError) Error() string {
	var sb strings.Builder
	kind := "wait deadline"
	if e.Hard {
		kind = "hang timeout"
	}
	fmt.Fprintf(&sb, "net: rank %d: %s %v exceeded:", e.Rank, kind, e.Timeout)
	for _, m := range e.Missing {
		fmt.Fprintf(&sb, " collective seq %d missing blocks from ranks %v;", m.Seq, m.From)
	}
	return strings.TrimSuffix(sb.String(), ";")
}

// deadlineErr builds the diagnostic for a timed-out wait (w.mu held).
func (c *Comm) deadlineErr(reqs []mpi.Request, limit time.Duration, hard bool) *DeadlineError {
	e := &DeadlineError{Rank: c.w.rank, Timeout: limit, Hard: hard}
	for _, r := range reqs {
		if r == nil {
			continue
		}
		seqs, from := r.(sched.Request).Missing()
		if len(seqs) == 0 {
			continue
		}
		m := MissingBlocks{Seq: seqs[0], From: append([]int(nil), from...)}
		sort.Ints(m.From)
		e.Missing = append(e.Missing, m)
	}
	sort.Slice(e.Missing, func(i, j int) bool { return e.Missing[i].Seq < e.Missing[j].Seq })
	return e
}
