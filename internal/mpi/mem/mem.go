// Package mem implements the mpi.Comm interface for real in-process runs:
// ranks are goroutines and payloads are real complex128 slabs. Delivery,
// recovery under a fault plan, Test/Wait and the soft and hard wait limits
// are package mpi/transport's; this package supplies the link of a world
// whose p ranks all live in one process — a message is handed over by a
// function call, at once or after an emulated link delay (WithDelay: the
// delay is idle time, not CPU time, so computation-communication overlap
// produces genuine wall-clock savings even on one core) — plus what only
// such a world can have: a shared-memory barrier and a watchdog that fails
// a provably deadlocked world with a diagnostic naming the stuck
// collectives instead of hanging.
//
// This engine is the numerical-correctness and demo substrate; the sim
// engine (package mpi/sim) is the performance-reproduction substrate.
package mem

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"offt/internal/arena"
	"offt/internal/machine"
	"offt/internal/mpi"
	"offt/internal/mpi/envelope"
	"offt/internal/mpi/transport"
)

// WithDelay enables emulated link delays from the given machine model,
// which also becomes the world's topology (the hierarchical schedule's
// ranks per node).
func WithDelay(m machine.Machine) transport.Option {
	return func(c *transport.Config) {
		c.Machine = m
		c.Delay = true
	}
}

// defaultWatchdog is the Run deadlock-detection window used when
// WithHangTimeout is not given: long enough that no healthy workload in
// this repo comes near it, short enough that a stuck test binary reports
// instead of timing out the whole suite.
const defaultWatchdog = 20 * time.Second

// World is an in-process job of p ranks.
type World struct {
	*transport.World
	p     int
	wire  wire
	watch time.Duration // deadlock watchdog window; <= 0: no watchdog
	hang  time.Duration // hard limit of a Barrier call; <= 0: none

	// Barrier and watchdog state. finished counts ranks whose body
	// returned; barrier[r] is the generation rank r waits on, plus one.
	mu       sync.Mutex
	barCond  *sync.Cond
	barGen   int
	barCount int
	barrier  []int
	finished int
}

// NewWorld creates an in-process world of p ranks.
func NewWorld(p int, opts ...transport.Option) *World {
	if p < 1 {
		panic("mem: need at least one rank")
	}
	cfg := transport.Config{Name: "mem", RTO: 3 * time.Millisecond, Machine: machine.Laptop()}
	for _, o := range opts {
		o(&cfg)
	}
	w := &World{p: p, watch: cfg.HangTimeout, hang: cfg.HangTimeout, barrier: make([]int, p)}
	if w.watch == 0 {
		w.watch = defaultWatchdog
	}
	w.barCond = sync.NewCond(&w.mu)
	w.wire = wire{p: p, mach: cfg.Machine, delayed: cfg.Delay}
	w.World = transport.New(p, 0, p, &w.wire, cfg)
	w.wire.world = w.World
	return w
}

// Fail marks the world as failed with cause and wakes every rank blocked
// in Wait or Barrier; they panic with a transport.WorldFailure carrying
// cause (see transport.World.Fail).
func (w *World) Fail(cause error) {
	w.World.Fail(cause)
	w.mu.Lock()
	w.barCond.Broadcast()
	w.mu.Unlock()
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
		go func() {
			defer func() {
				w.mu.Lock()
				w.finished++
				w.mu.Unlock()
				if rec := recover(); rec != nil {
					errs <- w.Recovered(r, rec)
					return
				}
				errs <- nil
			}()
			body(&Comm{Comm: w.Comm(r), world: w})
		}()
	}
	stop := make(chan struct{})
	watchdogDone := make(chan struct{})
	if w.watch > 0 {
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
	w.Shutdown() // a dead world must not keep firing retransmit timers
	return first
}

// Comm is one in-process rank's communicator.
type Comm struct {
	transport.Comm
	world *World
}

var _ mpi.Comm = (*Comm)(nil)

// Barrier blocks until all ranks arrive (reusable generation barrier).
// With WithHangTimeout configured, a barrier exceeding the limit fails the
// rank with a diagnostic error naming how many ranks arrived.
func (c *Comm) Barrier() {
	w := c.world
	var deadline time.Time
	if w.hang > 0 {
		deadline = time.Now().Add(w.hang)
		timer := time.AfterFunc(w.hang, func() {
			w.mu.Lock()
			w.barCond.Broadcast()
			w.mu.Unlock()
		})
		defer timer.Stop()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	gen := w.barGen
	w.barCount++
	if w.barCount == w.p {
		w.barCount = 0
		w.barGen++
		w.barCond.Broadcast()
		return
	}
	for gen == w.barGen {
		if err := w.Failed(); err != nil {
			panic(transport.WorldFailure{Err: err})
		}
		if w.hang > 0 && !time.Now().Before(deadline) {
			panic(transport.WorldFailure{Err: fmt.Errorf("mem: rank %d: Barrier (generation %d) timed out after %v with %d/%d ranks arrived",
				c.Rank(), gen, w.hang, w.barCount, w.p)})
		}
		w.barrier[c.Rank()] = gen + 1
		w.barCond.Wait()
		w.barrier[c.Rank()] = 0
	}
}

// wire is the link of a world whose ranks share one process: a message is
// delivered by calling into the destination's World, which is the sender's.
type wire struct {
	world   *transport.World
	p       int
	mach    machine.Machine
	delayed bool
	// inFlight counts scheduled deliveries not yet made; with the world's
	// outstanding set it lets the watchdog prove nothing can still move.
	inFlight atomic.Int64
}

// LinkNs is the emulated time of the src→dst link for elems elements, zero
// without WithDelay.
func (l *wire) LinkNs(src, dst, elems int) float64 {
	if !l.delayed {
		return 0
	}
	return float64(l.mach.Latency(src, dst)) +
		float64(elems*mpi.Elem16)*l.mach.EffNsPerByte(src, dst, l.mach.Nodes(l.p))
}

// Direct copies the block once, into a payload borrowed from the arena,
// and deposits it in dst's mailbox at once or after the link delay; the
// schedule that claims the payload releases it.
func (l *wire) Direct(src, dst, tag int, block []complex128) {
	payload := arena.Get(len(block))
	copy(payload.Data, block)
	if !l.delayed {
		l.world.Deposit(dst, src, tag, payload)
		return
	}
	l.after(int64(l.LinkNs(src, dst, len(block))), func() { l.world.Deposit(dst, src, tag, payload) })
}

// Carry delivers data as env to the receiver, which is handed a foreign
// slab: the payload stays the sender's to send again.
func (l *wire) Carry(env *envelope.Envelope, data []complex128, delayNs int64) {
	l.after(delayNs, func() {
		fr := envelope.Frame{Kind: envelope.KindData, Env: *env, Payload: &arena.Slab{Data: data}}
		fr.Env.Data = data
		// No error to report: the header is the core's own, and a corrupted
		// copy is only ever carried under the plan that resends it.
		_ = l.world.Receive(env.Src, &fr)
	})
}

// Ack retires the envelope at once: the function call is the control
// plane, and only payload deliveries fault.
func (l *wire) Ack(id int64, from, to int) {
	_ = l.world.Receive(from, &envelope.Frame{Kind: envelope.KindAck, AckID: id, AckFrom: from})
}

// after runs deliver now, or from a timer once delayNs has passed, and
// counts it as in flight until it returns.
func (l *wire) after(delayNs int64, deliver func()) {
	if delayNs <= 0 {
		deliver()
		return
	}
	l.inFlight.Add(1)
	time.AfterFunc(time.Duration(delayNs), func() {
		deliver()
		l.inFlight.Add(-1)
	})
}
