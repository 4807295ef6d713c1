// Package mem implements the mpi.Comm interface for real in-process runs:
// ranks are goroutines, payloads are real complex128 slabs handed over
// through a shared in-memory mailbox (see World.send for who owns a
// payload when). Optionally, message delivery is delayed according to a machine model's latency/bandwidth so that computation-
// communication overlap produces genuine wall-clock savings even on one
// core (the delay is idle time, not CPU time).
//
// The transport is self-healing when a fault plan is attached (see
// WithFaults and package mpi/fault): every message carries a sequence id
// and a checksum, the receiver discards corrupted or duplicate deliveries,
// and the sender retransmits unacknowledged messages with capped
// exponential backoff, so Test/Wait still converge under drop, corruption
// and duplication faults. Wait gains a configurable soft deadline
// (WithDeadline + Comm.WaitDeadline) that reports which ranks/collectives
// are missing instead of hanging, and World.Run detects a fully deadlocked
// world and returns a diagnostic error naming the stuck collectives.
//
// This engine is the numerical-correctness and demo substrate; the sim
// engine (package mpi/sim) is the performance-reproduction substrate.
package mem

import (
	"fmt"
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

// Option configures a World.
type Option func(*World)

// WithDelay enables emulated link delays from the given machine model.
func WithDelay(m machine.Machine) Option {
	return func(w *World) {
		w.mach = m
		w.delayed = true
	}
}

// WithFaults attaches a deterministic fault plan to the transport. An
// inactive (or nil) plan keeps the zero-overhead direct path; an active
// plan routes every message through the self-healing envelope transport.
func WithFaults(plan *fault.Plan) Option {
	return func(w *World) { w.plan = plan }
}

// WithDeadline sets the soft deadline used by Comm.WaitDeadline: when a
// wait exceeds d, WaitDeadline returns a *DeadlineError describing the
// missing blocks instead of blocking further. Plain Wait is unaffected.
// The overlapped FFT pipeline treats the error as the signal to downgrade
// to its blocking path.
func WithDeadline(d time.Duration) Option {
	return func(w *World) { w.deadline = d }
}

// WithHangTimeout sets the hard limit d on every Wait and Barrier call
// (they fail the world with a diagnostic error instead of hanging) and on
// the Run deadlock watchdog. d <= 0 disables both. Without this option,
// Wait and Barrier have no per-call limit but the watchdog still runs with
// a conservative default.
func WithHangTimeout(d time.Duration) Option {
	return func(w *World) {
		w.hangTimeout = d
		w.hangSet = d > 0
	}
}

// WithRetransmitTimeout sets the base retransmission timeout of the
// self-healing transport (default 3ms; backoff doubles it per attempt up
// to 16×). Only meaningful together with WithFaults.
func WithRetransmitTimeout(d time.Duration) Option {
	return func(w *World) {
		if d > 0 {
			w.rto = d
		}
	}
}

// defaultWatchdog is the Run deadlock-detection window used when
// WithHangTimeout is not given: long enough that no healthy workload in
// this repo comes near it, short enough that a stuck test binary reports
// instead of timing out the whole suite.
const defaultWatchdog = 20 * time.Second

// World is an in-process job of p ranks.
type World struct {
	p       int
	mach    machine.Machine
	delayed bool
	epoch   time.Time

	plan        *fault.Plan
	rto         time.Duration
	deadline    time.Duration // soft deadline for WaitDeadline; 0 = disabled
	hangTimeout time.Duration // hard per-call / watchdog limit
	hangSet     bool          // per-call hard limit only when explicitly configured

	mu      sync.Mutex
	conds   []*sync.Cond
	boxes   []envelope.Mailbox
	blocked []blockInfo // per-rank: what the rank is currently parked on
	// finished counts ranks whose body returned; inFlight counts scheduled
	// deliveries not yet deposited. Together with the outstanding map they
	// let the watchdog prove a world can make no further progress.
	finished int
	inFlight int
	failed   error
	closed   bool

	// Envelope transport state. linkSeq and dedup (sized by the first
	// enveloped send, indexed src*p+dst) number and filter each link.
	nextID      int64
	outstanding map[int64]*outMsg
	linkSeq     []int64
	dedup       []envelope.Dedup

	stats envelope.Counters

	barGen   int
	barCount int
	barCond  *sync.Cond
}

// NewWorld creates an in-process world of p ranks.
func NewWorld(p int, opts ...Option) *World {
	if p < 1 {
		panic("mem: need at least one rank")
	}
	w := &World{
		p:           p,
		mach:        machine.Laptop(),
		epoch:       time.Now(),
		rto:         3 * time.Millisecond,
		hangTimeout: defaultWatchdog,
		outstanding: make(map[int64]*outMsg),
	}
	w.conds = make([]*sync.Cond, p)
	w.boxes = make([]envelope.Mailbox, p)
	w.blocked = make([]blockInfo, p)
	for i := range w.conds {
		w.conds[i] = sync.NewCond(&w.mu)
	}
	w.barCond = sync.NewCond(&w.mu)
	for _, o := range opts {
		o(w)
	}
	return w
}

// Health returns a snapshot of the world's transport-recovery counters.
func (w *World) Health() mpi.Health { return w.stats.Snapshot() }

// RegisterTelemetry bridges the world's transport-recovery counters into a
// telemetry registry under "mem.transport.*" (see envelope.Counters).
func (w *World) RegisterTelemetry(r *telemetry.Registry) { w.stats.Register(r, "mem") }

// WorldFailure is the panic payload a failed world delivers to ranks
// blocked in Wait or Barrier: the hard hang timeout, the deadlock
// watchdog, and World.Fail all raise it. Run unwraps it into a plain
// error; long-lived callers that recover rank panics themselves (the
// public offt.Plan job loop) type-switch on it to tell "the world died"
// from "the rank's own code panicked".
type WorldFailure struct{ Err error }

// Error renders the wrapped diagnostic (WorldFailure is usable as an
// error value by recover handlers that re-record it).
func (f WorldFailure) Error() string { return f.Err.Error() }

// Fail marks the world as failed with cause and wakes every rank blocked
// in Wait or Barrier; they panic with a WorldFailure carrying cause. It
// is the administrative kill switch used by the serve layer's request
// watchdog (and the chaos harness) to resolve a hung transform promptly
// instead of waiting out the deadlock watchdog. Idempotent: only the
// first failure sticks.
func (w *World) Fail(cause error) {
	if cause == nil {
		cause = fmt.Errorf("mem: world failed")
	}
	w.mu.Lock()
	if w.failed == nil && !w.closed {
		w.failed = cause
		for _, c := range w.conds {
			c.Broadcast()
		}
		w.barCond.Broadcast()
	}
	w.mu.Unlock()
}

// Failed reports the world's failure cause (nil while healthy). Once
// non-nil every subsequent Wait/Barrier fails fast with it.
func (w *World) Failed() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.failed
}

// Run executes body once per rank in its own goroutine and returns when
// every rank finishes. A panic in any rank is returned as an error (the
// remaining ranks may be left blocked; the world must be discarded). A
// world where every rank is provably stuck — all blocked in Wait/Barrier
// with nothing in flight — past the hang timeout is failed with a
// diagnostic error naming the stuck collectives instead of hanging.
func (w *World) Run(body func(c *Comm)) error {
	errs := make(chan error, w.p)
	for r := 0; r < w.p; r++ {
		r := r
		go func() {
			defer func() {
				w.mu.Lock()
				w.finished++
				w.mu.Unlock()
				if rec := recover(); rec != nil {
					if wf, ok := rec.(WorldFailure); ok {
						errs <- wf.Err
					} else {
						errs <- fmt.Errorf("mem: rank %d panicked: %v", r, rec)
					}
					w.mu.Lock()
					for _, c := range w.conds {
						c.Broadcast()
					}
					w.barCond.Broadcast()
					w.mu.Unlock()
					return
				}
				errs <- nil
			}()
			body(&Comm{world: w, rank: r})
		}()
	}
	stop := make(chan struct{})
	watchdogDone := make(chan struct{})
	if w.hangTimeout > 0 {
		go w.watchdog(stop, watchdogDone)
	} else {
		close(watchdogDone)
	}
	var first error
	for i := 0; i < w.p; i++ {
		if err := <-errs; err != nil {
			// Other ranks may be blocked forever on the failed rank; return
			// immediately and let their goroutines leak (the world is dead).
			first = err
			break
		}
	}
	close(stop)
	<-watchdogDone
	w.shutdownTransport()
	return first
}

// Comm is one in-process rank's communicator.
type Comm struct {
	world *World
	rank  int
	seq   int
	ex    mpi.Exchange
	pkt   []complex128 // reusable packet-assembly scratch (Bruck/hier)
}

var (
	_ mpi.Comm           = (*Comm)(nil)
	_ mpi.DeadlineWaiter = (*Comm)(nil)
	_ mpi.HealthReporter = (*Comm)(nil)
	_ mpi.ExchangeSetter = (*Comm)(nil)
)

// SetExchange selects the all-to-all schedule for collectives posted from
// now on (mpi.ExchangeSetter). Every rank must apply the same Exchange
// before matching collectives.
func (c *Comm) SetExchange(ex mpi.Exchange) { c.ex = ex }

// Rank returns this rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.world.p }

// Now returns wall time since the world was created, in nanoseconds.
func (c *Comm) Now() int64 { return time.Since(c.world.epoch).Nanoseconds() }

// TransportHealth returns the world's recovery counters (implements
// mpi.HealthReporter; the overlapped pipeline consults it to detect
// persistent transport faults).
func (c *Comm) TransportHealth() mpi.Health { return c.world.Health() }

// ---- sched.Port implementation --------------------------------------------
//
// The schedule state machines (package mpi/sched) drive the engine through
// this surface; these methods exist for them, not for FFT code.

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
// copies it into an arena payload before returning (see World.send).
func (c *Comm) Send(dst, tag int, data []complex128) {
	c.world.send(c.rank, dst, tag, data)
}

// TryClaim removes the first mailbox message from (src, tag) and passes
// its payload to the caller, who owns it until Release.
func (c *Comm) TryClaim(src, tag int) *arena.Slab {
	w := c.world
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.boxes[c.rank].Claim(src, tag)
}

// Release returns a claimed payload to the arena (a no-op under a fault plan).
func (c *Comm) Release(payload *arena.Slab) { payload.Release() }

// Queued reports whether a message from (src, tag) is in the mailbox.
// Called with w.mu held (waitInner's park predicate).
func (c *Comm) Queued(src, tag int) bool {
	return c.world.boxes[c.rank].Has(src, tag)
}

// Scratch returns the rank's reusable packet-assembly buffer, grown to n.
func (c *Comm) Scratch(n int) []complex128 {
	if cap(c.pkt) < n {
		c.pkt = make([]complex128, n)
	}
	return c.pkt[:n]
}

// NodeSize is the machine model's ranks-per-node grouping, the default for
// the hierarchical schedule when the Exchange does not pin one.
func (c *Comm) NodeSize() int { return c.world.mach.CoresPerNode }

var _ sched.Port = (*Comm)(nil)

// Ialltoallv starts a non-blocking all-to-all with real payloads using the
// configured exchange schedule (SetExchange; pairwise by default). The send
// buffer is copied out, once, as messages are handed to the transport;
// inbound blocks are copied into recv during Test/Wait (the caller's CPU
// does the "progression" work, like the paper's manual progression). All
// schedules deliver bit-identical receive buffers (see package mpi/sched).
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

// Wait blocks until all requests complete, draining as messages arrive.
// With WithHangTimeout configured, a wait exceeding the limit fails the
// world with a diagnostic error instead of hanging.
func (c *Comm) Wait(reqs ...mpi.Request) {
	var limit time.Duration
	if c.world.hangSet {
		limit = c.world.hangTimeout
	}
	if err := c.waitInner(reqs, limit); err != nil {
		panic(WorldFailure{err})
	}
}

// WaitDeadline blocks like Wait but gives up once the world's soft
// deadline (WithDeadline) passes, returning a *DeadlineError that names
// the collectives and source ranks still missing. The requests stay valid:
// a subsequent Wait continues from where WaitDeadline left off. Without a
// configured deadline it is exactly Wait.
func (c *Comm) WaitDeadline(reqs ...mpi.Request) error {
	if c.world.deadline <= 0 {
		c.Wait(reqs...)
		return nil
	}
	return c.waitInner(reqs, c.world.deadline)
}

// waitInner drains until every request completes (limit == 0) or the limit
// passes (returning a *DeadlineError).
func (c *Comm) waitInner(reqs []mpi.Request, limit time.Duration) error {
	w := c.world
	var deadline time.Time
	var timer *time.Timer
	if limit > 0 {
		deadline = time.Now().Add(limit)
		// The cond has no timed wait: a one-shot timer wakes this rank so
		// the loop can observe the deadline.
		timer = time.AfterFunc(limit, func() {
			w.mu.Lock()
			w.conds[c.rank].Broadcast()
			w.mu.Unlock()
		})
		defer timer.Stop()
	}
	for {
		if c.Test(reqs...) {
			return nil
		}
		// Block until something new lands in our mailbox.
		w.mu.Lock()
		if w.failed != nil {
			err := w.failed
			w.mu.Unlock()
			panic(WorldFailure{err})
		}
		if limit > 0 && !time.Now().Before(deadline) {
			err := c.deadlineErrLocked(reqs, limit)
			w.mu.Unlock()
			return err
		}
		if !sched.AnyQueued(reqs) {
			w.blocked[c.rank] = blockInfo{kind: blockedWait, reqs: reqs}
			w.conds[c.rank].Wait()
			w.blocked[c.rank] = blockInfo{}
		}
		w.mu.Unlock()
	}
}

// Barrier blocks until all ranks arrive (reusable generation barrier).
// With WithHangTimeout configured, a barrier exceeding the limit fails the
// world with a diagnostic error naming how many ranks arrived.
func (c *Comm) Barrier() {
	w := c.world
	var deadline time.Time
	var timer *time.Timer
	if w.hangSet && w.hangTimeout > 0 {
		deadline = time.Now().Add(w.hangTimeout)
		timer = time.AfterFunc(w.hangTimeout, func() {
			w.mu.Lock()
			w.barCond.Broadcast()
			w.mu.Unlock()
		})
		defer timer.Stop()
	}
	w.mu.Lock()
	gen := w.barGen
	w.barCount++
	if w.barCount == w.p {
		w.barCount = 0
		w.barGen++
		w.barCond.Broadcast()
		w.mu.Unlock()
		return
	}
	for gen == w.barGen {
		if w.failed != nil {
			err := w.failed
			w.mu.Unlock()
			panic(WorldFailure{err})
		}
		if timer != nil && !time.Now().Before(deadline) {
			arrived := w.barCount
			w.mu.Unlock()
			panic(WorldFailure{fmt.Errorf("mem: rank %d: Barrier (generation %d) timed out after %v with %d/%d ranks arrived",
				c.rank, gen, w.hangTimeout, arrived, w.p)})
		}
		w.blocked[c.rank] = blockInfo{kind: blockedBarrier, gen: gen}
		w.barCond.Wait()
		w.blocked[c.rank] = blockInfo{}
	}
	w.mu.Unlock()
}
