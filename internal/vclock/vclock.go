// Package vclock provides a deterministic discrete-event scheduler for
// simulating parallel processes in virtual time.
//
// Each simulated process (rank) has a private virtual clock measured in
// integer nanoseconds, and all timed operations across the whole simulation
// execute in a single total order: ascending virtual time, with events
// before processes at equal times, events tie-broken by creation sequence,
// and processes tie-broken by id. That order is one loop, in Run: fire every
// due event, then resume the ready process with the smallest (time, id).
//
// One thread suffices because the order is total — exactly one entity may
// run at any moment, so a second thread could only wait for the first. Each
// process body is therefore a coroutine (iter.Pull) that the loop resumes on
// the caller's goroutine and that switches straight back where it must let
// something else run first: in Advance, when an event or another process
// now precedes it, and in Park. Nothing is shared between threads, so there
// is no lock, and a simulation is bit-for-bit reproducible whatever the Go
// runtime's goroutine scheduling does.
//
// The network model in package simnet and the simulated MPI engine are
// built on three primitives: Advance (charge local compute time), Park/Wake
// (block until another entity wakes the process), and Schedule (run a
// callback, or fire an Event record, at an absolute virtual time).
package vclock

import (
	"errors"
	"fmt"
	"iter"
	"strings"
)

type procState int

const (
	stateReady   procState = iota // suspended, runnable at wakeAt
	stateRunning                  // resumed by the loop, executing user code
	stateWaiting                  // suspended until Wake
	stateDone                     // body returned
)

func (s procState) String() string {
	switch s {
	case stateReady:
		return "ready"
	case stateRunning:
		return "running"
	case stateWaiting:
		return "waiting"
	default:
		return "done"
	}
}

// Proc is one simulated process. All methods must be called only from the
// process body.
type Proc struct {
	sched *Scheduler
	id    int
	clock int64
	state procState

	// The body as a coroutine: the loop calls resume, the body calls yield
	// to switch back; stop unwinds a suspended body.
	resume func() (struct{}, bool)
	yield  func(struct{}) bool
	stop   func()
}

// ID returns the process id (0..n-1).
func (p *Proc) ID() int { return p.id }

// Now returns the process's current virtual time in nanoseconds.
func (p *Proc) Now() int64 { return p.clock }

// Peer returns the process with the given id from the same scheduler, for
// use as a Wake target.
func (p *Proc) Peer(id int) *Proc { return p.sched.procs[id] }

// Event is a scheduled callback as a record: a value that carries what its
// Fire method needs, so a caller that schedules one per simulated message
// can point at state it already holds where a func would capture it afresh.
// Fire executes under the scheduler's total order; it must not block and
// may wake processes (via the passed Waker) or schedule further events at
// times >= its own.
type Event interface {
	Fire(now int64, w Waker)
}

// funcEvent is the Event a plain callback makes.
type funcEvent func(now int64, w Waker)

func (f funcEvent) Fire(now int64, w Waker) { f(now, w) }

// timed is an entry of one of the scheduler's two queues: an event to fire
// or a ready process to resume, at time t. ord breaks ties at equal times
// and names the entry: an event's creation sequence, a process's id.
type timed struct {
	t, ord int64
	ev     Event // nil in Scheduler.ready
}

// queue is a binary min-heap of timed entries by (t, ord), which is a
// strict total order within either queue.
type queue []timed

func (a timed) before(b timed) bool { return a.t < b.t || (a.t == b.t && a.ord < b.ord) }

func (q *queue) push(x timed) {
	a := append(*q, x)
	*q = a
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !x.before(a[parent]) {
			break
		}
		a[i] = a[parent]
		i = parent
	}
	a[i] = x
}

func (q *queue) pop() timed {
	a := *q
	n := len(a) - 1
	top, x := a[0], a[n]
	a[n] = timed{} // the vacated slot drops its reference
	a = a[:n]
	*q = a
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && a[c+1].before(a[c]) {
			c++
		}
		if !a[c].before(x) {
			break
		}
		a[i] = a[c]
		i = c
	}
	a[i] = x
	return top
}

// Scheduler coordinates a fixed set of processes and an event queue.
type Scheduler struct {
	procs  []*Proc
	events queue // by (time, creation sequence)
	ready  queue // by (wake time, id): exactly the processes in stateReady
	seq    int64
	now    int64 // time of the event being fired, for its Waker
	err    error
	ran    bool

	// TraceFn, when non-nil, receives a line per scheduling decision; used
	// by determinism tests. Must be set before Run.
	TraceFn func(line string)
}

// New creates a scheduler for n processes.
func New(n int) *Scheduler {
	if n < 1 {
		panic("vclock: need at least one process")
	}
	s := &Scheduler{procs: make([]*Proc, n), ready: make(queue, n)}
	for i := range s.procs {
		s.procs[i] = &Proc{sched: s, id: i, state: stateReady}
		s.ready[i] = timed{ord: int64(i)} // all at time 0, ascending id: a valid heap
	}
	return s
}

// N returns the number of processes.
func (s *Scheduler) N() int { return len(s.procs) }

// poison unwinds a suspended process body when the scheduler stops it; the
// recover in run swallows it.
type poison struct{}

// Run executes body once per process (as that process) and returns when all
// bodies have completed. It returns an error if the simulation deadlocks
// (all processes waiting with no pending events) or a process body panics;
// either way every body has been unwound when it returns. A scheduler runs
// once: a second call returns an error.
func (s *Scheduler) Run(body func(p *Proc)) error {
	if s.ran {
		return errors.New("vclock: Run called twice")
	}
	s.ran = true
	for _, p := range s.procs {
		p.resume, p.stop = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			p.run(body)
		})
	}
	// Also on a panic out of an event callback: no coroutine outlives Run.
	defer func() {
		for _, p := range s.procs {
			p.stop()
		}
	}()
	done := 0
	for s.err == nil {
		// Events run before any process at or after their time.
		if len(s.events) > 0 && (len(s.ready) == 0 || s.events[0].t <= s.ready[0].t) {
			e := s.events.pop()
			if s.TraceFn != nil {
				s.TraceFn(fmt.Sprintf("event @%d seq%d", e.t, e.ord))
			}
			s.now = e.t
			e.ev.Fire(e.t, Waker{s})
			continue
		}
		if len(s.ready) == 0 {
			if done < len(s.procs) {
				s.err = fmt.Errorf("vclock: deadlock: %s", s.stateDump())
			}
			break
		}
		r := s.ready.pop()
		p := s.procs[r.ord]
		p.state = stateRunning
		p.clock = max(p.clock, r.t)
		s.trace("grant", p, r.t)
		if _, suspended := p.resume(); !suspended && s.err == nil {
			p.state = stateDone
			done++
			s.trace("done", p, p.clock)
		}
	}
	return s.err
}

// run is the coroutine's frame around the body: a panic becomes the
// scheduler's error, except the poison that stop unwinds the body with.
func (p *Proc) run(body func(p *Proc)) {
	defer func() {
		if r := recover(); r != nil {
			if _, stopped := r.(poison); !stopped && p.sched.err == nil {
				p.sched.err = fmt.Errorf("vclock: process %d panicked: %v", p.id, r)
			}
		}
	}()
	body(p)
}

// suspend switches back to the loop and returns when it resumes p.
func (p *Proc) suspend() {
	if !p.yield(struct{}{}) {
		panic(poison{})
	}
}

// Advance charges d nanoseconds of local time to the process, letting any
// entity that must logically run first do so.
func (p *Proc) Advance(d int64) {
	if d < 0 {
		panic(fmt.Sprintf("vclock: negative advance %d", d))
	}
	p.clock += d
	// p continues if no event and no ready process precedes it.
	s := p.sched
	if len(s.events) == 0 || s.events[0].t > p.clock {
		if len(s.ready) == 0 || (timed{t: p.clock, ord: int64(p.id)}).before(s.ready[0]) {
			return
		}
	}
	s.makeReady(p, p.clock)
	p.suspend()
}

// Park blocks the process until another entity calls Wake. The process
// resumes with its clock set to max(its own clock, the wake time).
func (p *Proc) Park() {
	p.state = stateWaiting
	p.sched.trace("park", p, p.clock)
	p.suspend()
}

// Wake marks the waiting process q runnable at virtual time t. The caller p
// must be the currently running process; t is clamped up to p's clock (a
// process cannot wake another in its own past). Event callbacks use
// Waker.Wake instead.
func (p *Proc) Wake(q *Proc, t int64) {
	p.sched.wake(q, max(t, p.clock))
}

func (s *Scheduler) wake(q *Proc, t int64) {
	if q.state != stateWaiting {
		panic(fmt.Sprintf("vclock: Wake on process %d in state %v", q.id, q.state))
	}
	t = max(t, q.clock)
	s.makeReady(q, t)
	s.trace("wake", q, t)
}

func (s *Scheduler) makeReady(p *Proc, t int64) {
	p.state = stateReady
	s.ready.push(timed{t: t, ord: int64(p.id)})
}

// ScheduleEvent fires ev at absolute virtual time t, which must be >= the
// calling process's current time.
func (p *Proc) ScheduleEvent(t int64, ev Event) {
	if t < p.clock {
		panic(fmt.Sprintf("vclock: Schedule at %d before caller's now %d", t, p.clock))
	}
	p.sched.schedule(t, ev)
}

// Schedule is ScheduleEvent for a plain callback.
func (p *Proc) Schedule(t int64, fn func(now int64, w Waker)) {
	p.ScheduleEvent(t, funcEvent(fn))
}

// Waker is handed to event callbacks so they can wake processes and chain
// events. It is valid only during the callback.
type Waker struct{ s *Scheduler }

// Wake marks a waiting process runnable at time t (>= the event time).
func (w Waker) Wake(q *Proc, t int64) {
	w.s.wake(q, max(t, w.s.now))
}

// ScheduleEvent chains another event at time t >= the current event's time.
func (w Waker) ScheduleEvent(t int64, ev Event) {
	if t < w.s.now {
		panic(fmt.Sprintf("vclock: event Schedule at %d before event time %d", t, w.s.now))
	}
	w.s.schedule(t, ev)
}

// Schedule is ScheduleEvent for a plain callback.
func (w Waker) Schedule(t int64, fn func(now int64, w Waker)) {
	w.ScheduleEvent(t, funcEvent(fn))
}

func (s *Scheduler) schedule(t int64, ev Event) {
	s.seq++
	s.events.push(timed{t: t, ord: s.seq, ev: ev})
}

func (s *Scheduler) stateDump() string {
	var b strings.Builder
	for i, p := range s.procs {
		fmt.Fprintf(&b, "p%d=%v@%d ", i, p.state, p.clock)
	}
	fmt.Fprintf(&b, "events=%d", len(s.events))
	return b.String()
}

// trace emits "<what> p<id> @<t>"; nothing is formatted unless TraceFn is
// set.
func (s *Scheduler) trace(what string, p *Proc, t int64) {
	if s.TraceFn != nil {
		s.TraceFn(fmt.Sprintf("%s p%d @%d", what, p.id, t))
	}
}
