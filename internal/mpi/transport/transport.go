// Package transport is the reliable-delivery core under the mem and net
// engines: one copy of the envelope protocol and of the communicator both
// engines present. A World holds the mailboxes of its local ranks, numbers
// and seals envelopes, keeps the unacknowledged set with its retransmit
// timers, and runs the receiver (verify, dedup, deposit, acknowledge); a
// Comm is one local rank's mpi communicator minus the barrier, and the
// sched.Port the exchange schedules drive.
//
// What an engine adds is its Link: how a message crosses from one rank to
// another. mem's link is a function call into the same World (p local
// ranks, delivery now or after an emulated link delay); net's is a framed
// TCP connection to a World in another process (one local rank).
//
// Ownership of buffers follows one rule. A buffer with a single holder
// goes back to the arena when that holder is done: a payload moves link →
// mailbox → the schedule that claims it, which releases it after copying
// the block out; a wire frame is released by the writer that put it on the
// socket. Under an active fault plan the sender's payload copy is aliased
// by the outstanding set, pending duplicates and the retransmit timer, so
// its handle is dropped and the collector takes the buffer.
//
// Envelope IDs count per World and link sequence numbers per src→dst pair,
// so a mem world numbers its envelopes world-wide and a net world per rank.
// Both are inputs of every fault roll (fault.Plan.Decide).
package transport

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"offt/internal/arena"
	"offt/internal/machine"
	"offt/internal/mpi"
	"offt/internal/mpi/envelope"
	"offt/internal/mpi/fault"
	"offt/internal/telemetry"
)

// Link is the engine side of a World: how messages leave a local rank. The
// receiving end of every path is the destination World's Receive.
type Link interface {
	// Direct hands one block to dst on a world without an active fault
	// plan: the engine's own cheapest path. block is the caller's again
	// when Direct returns.
	Direct(src, dst, tag int, block []complex128)
	// Carry makes one delivery attempt of an outstanding envelope under a
	// fault plan, after delayNs if positive. data is env.Data, or a
	// corrupted copy the receiver has to reject.
	Carry(env *envelope.Envelope, data []complex128, delayNs int64)
	// Ack tells the World of rank to, which sent envelope id, that rank
	// from accepted it. (Scalars, not the envelope: an argument of an
	// interface call escapes, and Receive's frame is to stay on the stack.)
	Ack(id int64, from, to int)
	// LinkNs is the emulated wire time of elems elements from src to dst,
	// zero where the wire is real.
	LinkNs(src, dst, elems int) float64
}

// Config is what an engine hands the core: its defaults, then the caller's
// options applied on top.
type Config struct {
	Name        string          // engine name: error prefix and telemetry namespace
	Plan        *fault.Plan     // nil or inactive: no fault injection, Link.Direct carries everything
	RTO         time.Duration   // base retransmission timeout
	Deadline    time.Duration   // soft limit of WaitDeadline; 0 = none
	HangTimeout time.Duration   // hard limit of every Wait; 0 = engine default, < 0 = disabled
	Machine     machine.Machine // topology default of the hierarchical schedule
	Delay       bool            // emulate Machine's link delays (mem.WithDelay)
}

// Option configures a world of either engine.
type Option func(*Config)

// WithFaults attaches a deterministic fault plan. An inactive (or nil) plan
// keeps the engine's direct path; an active one routes every message
// through the retransmitting envelope protocol. On the net engine attach it
// to every rank of a world or to none: a rank without one cannot recover a
// corrupted delivery (see World.Receive).
func WithFaults(plan *fault.Plan) Option {
	return func(c *Config) { c.Plan = plan }
}

// WithDeadline sets the soft deadline of Comm.WaitDeadline: a wait longer
// than d returns a *DeadlineError describing the missing blocks instead of
// blocking further. Plain Wait is unaffected. The overlapped FFT pipeline
// treats the error as the signal to downgrade to its blocking path.
func WithDeadline(d time.Duration) Option {
	return func(c *Config) { c.Deadline = d }
}

// WithHangTimeout sets the hard limit d on every Wait and Barrier call:
// past it the rank fails with a diagnostic error instead of hanging.
// d <= 0 disables it. The mem engine has no per-call limit unless this
// option is given, and also uses d as the window of its deadlock watchdog
// (20s by default); the net engine, where no process sees the whole world,
// always arms the per-call limit and defaults it to 20s.
func WithHangTimeout(d time.Duration) Option {
	return func(c *Config) {
		if d <= 0 {
			d = -1
		}
		c.HangTimeout = d
	}
}

// WithRetransmitTimeout sets the base retransmission timeout (default 3ms
// on mem, 25ms on net; backoff doubles it per attempt up to 16×). It only
// matters together with WithFaults: without injected losses nothing is
// ever resent.
func WithRetransmitTimeout(d time.Duration) Option {
	return func(c *Config) {
		if d > 0 {
			c.RTO = d
		}
	}
}

// ErrCorruptFrame is what Receive returns for a delivery that fails its
// checksum on a world without an active fault plan: its sender handed it
// over once and keeps no copy to send again.
var ErrCorruptFrame = errors.New("frame failed its checksum and no fault plan is attached to resend it")

// outMsg is an unacknowledged envelope a fault plan may make the sender
// transmit again, and the timer that will.
type outMsg struct {
	env   envelope.Envelope
	timer *time.Timer
}

// untimed stands in the outstanding set for an envelope sent through
// Link.Direct: it waits for its ack but is never transmitted again.
var untimed = new(outMsg)

// World is the delivery state of the ranks one process (net) or one
// in-process job (mem) hosts: local ranks lo..hi-1 of p.
type World struct {
	p, lo, hi int
	link      Link
	cfg       Config
	epoch     time.Time

	mu     sync.Mutex
	conds  []sync.Cond        // by rank: what a local rank parks on
	boxes  []envelope.Mailbox // by rank: delivered, unclaimed payloads
	parked [][]mpi.Request    // by rank: the requests a parked rank waits for
	failed error
	closed bool

	nextID      int64
	linkSeq     []int64          // by src*p+dst, contiguous from 1
	dedup       []envelope.Dedup // by src*p+dst
	outstanding map[int64]*outMsg

	stats envelope.Counters
}

// New creates the world of local ranks lo..hi-1 out of p over link.
func New(p, lo, hi int, link Link, cfg Config) *World {
	w := &World{
		p: p, lo: lo, hi: hi, link: link, cfg: cfg,
		epoch:       time.Now(),
		conds:       make([]sync.Cond, p),
		boxes:       make([]envelope.Mailbox, p),
		parked:      make([][]mpi.Request, p),
		linkSeq:     make([]int64, p*p),
		dedup:       make([]envelope.Dedup, p*p),
		outstanding: make(map[int64]*outMsg),
	}
	for i := range w.conds {
		w.conds[i].L = &w.mu
	}
	return w
}

// Health returns a snapshot of the world's transport-recovery counters.
func (w *World) Health() mpi.Health { return w.stats.Snapshot() }

// RegisterTelemetry bridges the recovery counters into a telemetry registry
// under "<engine>.transport.*" (see envelope.Counters).
func (w *World) RegisterTelemetry(r *telemetry.Registry) { w.stats.Register(r, w.cfg.Name) }

// WorldFailure is the panic payload a failed world delivers to ranks
// blocked in Wait or Barrier: a hard hang timeout, mem's deadlock
// watchdog, a lost net peer and World.Fail all raise it. An engine's Run
// unwraps it into a plain error; long-lived callers that recover rank
// panics themselves (the public offt.Plan job loop) type-switch on it to
// tell "the world died" from "the rank's own code panicked".
type WorldFailure struct{ Err error }

func (f WorldFailure) Error() string { return f.Err.Error() }

// Recovered turns what recover returned in a rank's goroutine into Run's
// error.
func (w *World) Recovered(rank int, rec any) error {
	if wf, ok := rec.(WorldFailure); ok {
		return wf.Err
	}
	return fmt.Errorf("%s: rank %d panicked: %v", w.cfg.Name, rank, rec)
}

// Fail marks the world failed with cause and wakes every parked rank; they
// panic with a WorldFailure carrying cause. It is the kill switch of the
// serve layer's request watchdog and KillPlan chaos hook, and how a link
// reports a lost peer. Only the first failure sticks, and a closed world
// stays as it was.
func (w *World) Fail(cause error) {
	if cause == nil {
		cause = fmt.Errorf("%s: world failed", w.cfg.Name)
	}
	w.mu.Lock()
	if w.failed == nil && !w.closed {
		w.failed = cause
		w.wakeAllLocked()
	}
	w.mu.Unlock()
}

// Failed reports the world's failure cause (nil while healthy). Once
// non-nil every later Wait fails fast with it.
func (w *World) Failed() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.failed
}

func (w *World) wakeAllLocked() {
	for i := range w.conds {
		w.conds[i].Broadcast()
	}
}

// Outstanding is the number of envelopes sent and not yet acknowledged.
func (w *World) Outstanding() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.outstanding)
}

// Parked reports whether local rank r is parked in Wait, and with detail
// describes what its requests still miss (it is parked, so nothing mutates
// them).
func (w *World) Parked(r int, detail bool) (missing string, parked bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if detail {
		missing = describe(missingBlocks(w.parked[r]))
	}
	return missing, w.parked[r] != nil
}

// Shutdown closes the world: every retransmit timer is stopped, nothing
// more is sent or delivered, parked ranks are woken. It reports whether
// this call did the closing.
func (w *World) Shutdown() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return false
	}
	w.closed = true
	for id, om := range w.outstanding {
		if om.timer != nil {
			om.timer.Stop()
		}
		delete(w.outstanding, id)
	}
	w.wakeAllLocked()
	return true
}

// ---- sender -----------------------------------------------------------------

// send routes one block from a local rank. Without an active fault plan
// the link's direct path carries it; with one the block is copied into a
// payload the world keeps until the receiver acknowledges it.
func (w *World) send(src, dst, tag int, block []complex128) {
	w.stats.Sent.Add(1)
	if !w.cfg.Plan.Active() {
		w.link.Direct(src, dst, tag, block)
		return
	}
	payload := arena.Get(len(block)) // handle dropped: see the ownership rule
	copy(payload.Data, block)
	om := &outMsg{env: envelope.Envelope{Src: src, Dst: dst, Tag: tag, Data: payload.Data}}
	om.env.Seal()
	if w.register(&om.env, om) {
		w.transmit(om, 0)
	}
}

// Track seals env, gives it its ID and link sequence number and records it
// as outstanding until its ack arrives. It is for a Link.Direct whose far
// end acknowledges: the envelope is never sent again. False on a closed
// world, where nothing is sent at all.
func (w *World) Track(env *envelope.Envelope) bool {
	env.Seal()
	return w.register(env, untimed)
}

func (w *World) register(env *envelope.Envelope, om *outMsg) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return false
	}
	w.nextID++
	env.ID = w.nextID
	l := env.Src*w.p + env.Dst
	w.linkSeq[l]++
	env.Seq = w.linkSeq[l]
	w.outstanding[env.ID] = om
	return true
}

// transmit performs one delivery attempt of an outstanding envelope,
// rolling the fault plan for this attempt, and arms the retransmission
// timer with capped exponential backoff. Acknowledged (or dead-world)
// messages are left alone.
func (w *World) transmit(om *outMsg, attempt int) {
	env, plan := &om.env, w.cfg.Plan
	if !w.armed(om) {
		return
	}
	if attempt > 0 {
		w.stats.Retransmits.Add(1)
	}
	d := plan.Decide(env.Src, env.Dst, env.Tag, env.ID, attempt)
	now := time.Since(w.epoch).Nanoseconds()
	// Per-rank degradation: a stalled NIC holds the message until the
	// window closes; a slow NIC or link scales the emulated wire time.
	delay := plan.StallEnd(env.Src, now) - now + d.DelayNs
	if wire := w.link.LinkNs(env.Src, env.Dst, len(env.Data)); wire > 0 {
		delay += int64(wire * plan.NICFactor(env.Src) * plan.LinkFactor(env.Src, env.Dst, now))
	}
	if d.Drop {
		w.stats.DropsInjected.Add(1)
	} else {
		data := env.Data
		if d.Corrupt {
			w.stats.CorruptionsInjected.Add(1)
			data = fault.CorruptCopy(env.Data, uint64(env.ID)<<8^uint64(attempt))
		}
		w.link.Carry(env, data, delay)
		if d.Duplicate {
			w.stats.DuplicatesInjected.Add(1)
			w.link.Carry(env, env.Data, delay)
		}
	}
	rto := envelope.Backoff(w.cfg.RTO, attempt)
	w.mu.Lock()
	if w.armedLocked(om) {
		if attempt > 0 {
			w.stats.Backoffs.Add(1)
		}
		om.timer = time.AfterFunc(time.Duration(delay)+rto, func() { w.transmit(om, attempt+1) })
	}
	w.mu.Unlock()
}

// armed reports whether om is still waiting for its ack on a live world.
func (w *World) armed(om *outMsg) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.armedLocked(om)
}

func (w *World) armedLocked(om *outMsg) bool {
	return w.outstanding[om.env.ID] == om && !w.closed && w.failed == nil
}

// ---- receiver ---------------------------------------------------------------

// Deposit puts a payload from (src, tag) into local rank dst's mailbox and
// wakes the rank; the mailbox owns the payload until a schedule claims it.
// A Link.Direct whose destination is local ends here.
func (w *World) Deposit(dst, src, tag int, payload *arena.Slab) {
	w.mu.Lock()
	w.depositLocked(dst, src, tag, payload)
	w.mu.Unlock()
}

func (w *World) depositLocked(dst, src, tag int, payload *arena.Slab) {
	w.boxes[dst].Put(src, tag, payload)
	w.stats.Delivered.Add(1)
	w.conds[dst].Broadcast()
}

// Receive takes one frame that arrived from rank from: an ack retires the
// envelope it names; a data frame is verified against its checksum,
// filtered for duplicates, deposited and acknowledged. A corrupted
// delivery is dropped unacknowledged and the sender's retransmission
// recovers it. fr.Payload moves into the mailbox with an accepted message
// and back to the arena with any other.
//
// A non-nil error means the frame cannot be acted on and nothing will mend
// it — the link decides whom to blame and fails the world: a header that
// contradicts the connection that carried it (envelope.ErrBadHeader), or a
// corrupted delivery on a world without a fault plan (ErrCorruptFrame).
func (w *World) Receive(from int, fr *envelope.Frame) error {
	if fr.Kind == envelope.KindAck {
		if fr.AckFrom != from {
			return fmt.Errorf("%w: ack from rank %d arrived from rank %d", envelope.ErrBadHeader, fr.AckFrom, from)
		}
		w.retire(fr.AckID)
		return nil
	}
	env := &fr.Env
	if fr.Kind != envelope.KindData || env.Src != from || env.Dst < w.lo || env.Dst >= w.hi {
		fr.Payload.Release()
		return fmt.Errorf("%w: kind %d from rank %d to rank %d arrived from rank %d at ranks [%d, %d)",
			envelope.ErrBadHeader, fr.Kind, env.Src, env.Dst, from, w.lo, w.hi)
	}
	if !env.Verify() {
		w.stats.CorruptionsDetected.Add(1)
		fr.Payload.Release()
		if !w.cfg.Plan.Active() {
			return ErrCorruptFrame
		}
		return nil
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	dup := w.dedup[env.Src*w.p+env.Dst].Duplicate(env.Seq)
	if dup {
		w.stats.Dedups.Add(1)
	} else {
		w.depositLocked(env.Dst, env.Src, env.Tag, fr.Payload)
	}
	w.mu.Unlock()
	if dup {
		fr.Payload.Release()
	}
	w.link.Ack(env.ID, env.Dst, env.Src)
	return nil
}

// retire takes an acknowledged envelope out of the outstanding set and
// stops its retransmit timer.
func (w *World) retire(id int64) {
	w.mu.Lock()
	if om, live := w.outstanding[id]; live {
		if om.timer != nil {
			om.timer.Stop()
		}
		delete(w.outstanding, id)
		w.stats.Acks.Add(1)
	}
	w.mu.Unlock()
}
