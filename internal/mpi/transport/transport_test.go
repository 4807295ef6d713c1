package transport

import (
	"errors"
	"slices"
	"testing"
	"time"

	"offt/internal/arena"
	"offt/internal/mpi"
	"offt/internal/mpi/envelope"
	"offt/internal/mpi/fault"
)

// script is a Link inside one World that delivers nothing by itself: every
// Carry is queued with the time it was made, and the test decides what
// reaches Receive, in what order and how often. Acks pass at once unless
// held; Direct deposits at once.
type script struct {
	w        *World
	carried  chan carry
	holdAcks bool
	acks     []envelope.Frame
}

type carry struct {
	env  envelope.Envelope // Data is what was carried: the payload or a corrupted copy
	when time.Time
}

func (s *script) Direct(src, dst, tag int, block []complex128) {
	payload := arena.Get(len(block))
	copy(payload.Data, block)
	s.w.Deposit(dst, src, tag, payload)
}

func (s *script) Carry(env *envelope.Envelope, data []complex128, delayNs int64) {
	c := carry{env: *env, when: time.Now()}
	c.env.Data = data
	s.carried <- c
}

func (s *script) Ack(id int64, from, to int) {
	ack := envelope.Frame{Kind: envelope.KindAck, AckID: id, AckFrom: from}
	if s.holdAcks {
		s.acks = append(s.acks, ack)
	} else if err := s.w.Receive(from, &ack); err != nil {
		panic(err)
	}
}

func (s *script) LinkNs(src, dst, elems int) float64 { return 0 }

// newScripted builds a world of p local ranks over a script link.
func newScripted(p int, opts ...Option) (*World, *script) {
	cfg := Config{Name: "test", RTO: time.Millisecond}
	for _, o := range opts {
		o(&cfg)
	}
	s := &script{carried: make(chan carry, 64)} // more than any test carries before it reads
	s.w = New(p, 0, p, s, cfg)
	return s.w, s
}

// next waits for the link's next carried delivery attempt.
func (s *script) next(t *testing.T) carry {
	t.Helper()
	select {
	case c := <-s.carried:
		return c
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery attempt within 5s")
		panic("unreachable")
	}
}

// deliver hands a carried attempt to the receiver, as the far end of a
// link would.
func (s *script) deliver(t *testing.T, c carry) {
	t.Helper()
	fr := envelope.Frame{Kind: envelope.KindData, Env: c.env, Payload: &arena.Slab{Data: c.env.Data}}
	if err := s.w.Receive(c.env.Src, &fr); err != nil {
		t.Fatalf("Receive: %v", err)
	}
}

// claim takes rank dst's message from (src, tag) and returns its data, nil
// if none is queued.
func claim(w *World, dst, src, tag int) []complex128 {
	c := w.Comm(dst)
	payload := c.TryClaim(src, tag)
	if payload == nil {
		return nil
	}
	return payload.Data
}

var block = []complex128{1 + 2i, 3, 4i}

// slowRTO leaves a test that compares exact counters 2×slowRTO to answer a
// retransmission before the next one would be counted.
const slowRTO = 50 * time.Millisecond

// wantHealth compares the world's counters but for Backoffs: whether the
// attempt the test answers re-arms its timer first is a race the test does
// not control.
func wantHealth(t *testing.T, w *World, want mpi.Health) {
	t.Helper()
	got := w.Health()
	if got.Backoffs = 0; got != want {
		t.Errorf("health\n got %+v\nwant %+v", got, want)
	}
}

// TestDropIsResent: a dropped first attempt is never carried; the
// retransmit timer makes the second, which is delivered and acknowledged.
func TestDropIsResent(t *testing.T) {
	w, s := newScripted(2, WithFaults(&fault.Plan{ForceDropAttempts: 1}), WithRetransmitTimeout(slowRTO))
	c0 := w.Comm(0)
	c0.Send(1, 5, block)
	if w.Outstanding() != 1 {
		t.Fatalf("outstanding = %d after a dropped attempt, want 1", w.Outstanding())
	}
	s.deliver(t, s.next(t))
	if got := claim(w, 1, 0, 5); !slices.Equal(got, block) {
		t.Errorf("claimed %v, want %v", got, block)
	}
	if w.Outstanding() != 0 {
		t.Errorf("outstanding = %d after the ack, want 0", w.Outstanding())
	}
	wantHealth(t, w, mpi.Health{Sent: 1, Delivered: 1, DropsInjected: 1, Retransmits: 1, Acks: 1})
}

// TestCorruptionIsRejectedAndResent: the receiver drops a delivery that
// fails its checksum without acknowledging it, and accepts the clean
// retransmission.
func TestCorruptionIsRejectedAndResent(t *testing.T) {
	w, s := newScripted(2, WithFaults(&fault.Plan{ForceCorruptAttempts: 1}), WithRetransmitTimeout(slowRTO))
	c0 := w.Comm(0)
	c0.Send(1, 5, block)
	bad := s.next(t)
	if slices.Equal(bad.env.Data, block) {
		t.Fatal("first attempt was carried uncorrupted")
	}
	s.deliver(t, bad)
	if got := claim(w, 1, 0, 5); got != nil || w.Outstanding() != 1 {
		t.Fatalf("corrupted delivery: claimed %v, outstanding %d; want nothing delivered, nothing acknowledged", got, w.Outstanding())
	}
	s.deliver(t, s.next(t))
	if got := claim(w, 1, 0, 5); !slices.Equal(got, block) {
		t.Errorf("claimed %v, want %v", got, block)
	}
	wantHealth(t, w, mpi.Health{Sent: 1, Delivered: 1, CorruptionsInjected: 1, CorruptionsDetected: 1, Retransmits: 1, Acks: 1})
}

// TestCorruptionWithoutPlanIsFatal: with no plan nobody will send the
// message again, so Receive reports the delivery instead of dropping it.
func TestCorruptionWithoutPlanIsFatal(t *testing.T) {
	w, _ := newScripted(2)
	env := envelope.Envelope{ID: 1, Seq: 1, Src: 0, Dst: 1, Tag: 5, Data: block}
	env.Seal()
	env.Data = fault.CorruptCopy(block, 1)
	fr := envelope.Frame{Kind: envelope.KindData, Env: env, Payload: &arena.Slab{Data: env.Data}}
	if err := w.Receive(0, &fr); !errors.Is(err, ErrCorruptFrame) {
		t.Errorf("Receive = %v, want ErrCorruptFrame", err)
	}
	wantHealth(t, w, mpi.Health{CorruptionsDetected: 1})
}

// TestDuplicatesReorderingAndLateCopies: two messages on one link are both
// carried twice (DupRate 1). Delivered out of order and with every copy,
// each lands once; a copy arriving after its original was acknowledged and
// claimed is discarded too, and acknowledged again.
func TestDuplicatesReorderingAndLateCopies(t *testing.T) {
	w, s := newScripted(2, WithFaults(&fault.Plan{DupRate: 1}), WithRetransmitTimeout(time.Minute))
	s.holdAcks = true // keep both messages outstanding while the copies arrive
	c0 := w.Comm(0)
	c0.Send(1, 5, block)
	c0.Send(1, 6, block[:1])
	first, firstCopy, second, secondCopy := s.next(t), s.next(t), s.next(t), s.next(t)
	if first.env.Seq != 1 || firstCopy.env.Seq != 1 || second.env.Seq != 2 || secondCopy.env.Seq != 2 {
		t.Fatalf("link sequence numbers %d %d %d %d, want 1 1 2 2", first.env.Seq, firstCopy.env.Seq, second.env.Seq, secondCopy.env.Seq)
	}
	s.deliver(t, second) // ahead of the gap
	s.deliver(t, secondCopy)
	s.deliver(t, first) // closes the gap
	if got := claim(w, 1, 0, 5); !slices.Equal(got, block) {
		t.Errorf("tag 5: claimed %v, want %v", got, block)
	}
	if got := claim(w, 1, 0, 6); !slices.Equal(got, block[:1]) {
		t.Errorf("tag 6: claimed %v, want %v", got, block[:1])
	}
	if len(s.acks) != 3 || w.Outstanding() != 2 {
		t.Fatalf("%d acks held, %d outstanding; want 3 (every verified delivery, duplicates included) and 2", len(s.acks), w.Outstanding())
	}
	for i := range s.acks {
		if err := w.Receive(1, &s.acks[i]); err != nil {
			t.Fatal(err)
		}
	}
	s.deliver(t, firstCopy) // after ack and claim
	if got := claim(w, 1, 0, 5); got != nil {
		t.Errorf("late duplicate was delivered again: %v", got)
	}
	wantHealth(t, w, mpi.Health{Sent: 2, Delivered: 2, DuplicatesInjected: 2, Dedups: 2, Acks: 2})
	w.Shutdown()
}

// TestBackoffDoublesToSixteen: with every attempt corrupted the link sees
// each one, so the gaps between attempts are the retransmission timeouts:
// rto doubling per attempt, then held at 16×.
func TestBackoffDoublesToSixteen(t *testing.T) {
	const rto = 4 * time.Millisecond
	w, s := newScripted(2, WithFaults(&fault.Plan{ForceCorruptAttempts: 8}), WithRetransmitTimeout(rto))
	c0 := w.Comm(0)
	c0.Send(1, 5, block)
	prev := s.next(t)
	for attempt := 0; attempt < 7; attempt++ {
		next := s.next(t)
		gap, want := next.when.Sub(prev.when), rto<<min(attempt, 4)
		if gap < want {
			t.Errorf("attempt %d followed attempt %d after %v, before its timeout %v", attempt+1, attempt, gap, want)
		}
		if attempt >= 5 && gap >= 2*want {
			t.Errorf("attempt %d followed attempt %d after %v: the timeout kept doubling past 16× (%v)", attempt+1, attempt, gap, want)
		}
		prev = next
	}
	w.Shutdown()
	if h := w.Health(); h.Retransmits != 7 || h.Backoffs < 6 {
		t.Errorf("%d retransmits and %d re-armed timers, want 7 and 6 or 7", h.Retransmits, h.Backoffs)
	}
}

// TestShutdownStopsEveryTimer: a closed world makes no further attempt for
// any outstanding message and sends nothing new.
func TestShutdownStopsEveryTimer(t *testing.T) {
	w, s := newScripted(3, WithFaults(&fault.Plan{ForceDropAttempts: 1 << 30}))
	for dst := 1; dst < 3; dst++ {
		c := w.Comm(0)
		for tag := 0; tag < 8; tag++ {
			c.Send(dst, tag, block)
		}
	}
	time.Sleep(5 * time.Millisecond) // a few retransmission rounds
	if !w.Shutdown() || w.Shutdown() {
		t.Error("Shutdown must report true exactly once")
	}
	var before mpi.Health
	for { // an attempt that was under way at Shutdown finishes counting
		before = w.Health()
		time.Sleep(time.Millisecond)
		if before == w.Health() {
			break
		}
	}
	if before.Backoffs = 0; before.Retransmits == 0 || w.Outstanding() != 0 {
		t.Fatalf("at shutdown: %d retransmits, %d outstanding; want some and none", before.Retransmits, w.Outstanding())
	}
	c := w.Comm(0)
	c.Send(1, 99, block)
	time.Sleep(40 * time.Millisecond) // 16× the timeout and more
	before.Sent++
	wantHealth(t, w, before)
	if len(s.carried) != 0 {
		t.Errorf("%d attempts were carried by a world that drops every one", len(s.carried))
	}
}

// stalled posts a collective in which rank 1 expects two elements from
// rank 0, whose only delivery attempt sits in the link. It returns rank 1's
// communicator, request and receive buffer.
func stalled(w *World) (*Comm, mpi.Request, []complex128) {
	c0, c1 := w.Comm(0), w.Comm(1)
	c0.Wait(c0.Ialltoallv(block[:2], []int{0, 2}, nil, []int{0, 0}))
	recv := make([]complex128, 2)
	return &c1, c1.Ialltoallv(nil, []int{0, 0}, recv, []int{2, 0}), recv
}

// TestSoftDeadlineNamesWhatIsMissing: WaitDeadline gives up with a
// *DeadlineError naming the collective and the source rank; the request
// stays valid and a later Wait completes it.
func TestSoftDeadlineNamesWhatIsMissing(t *testing.T) {
	w, s := newScripted(2, WithFaults(&fault.Plan{JitterNs: 1}), WithDeadline(10*time.Millisecond), WithRetransmitTimeout(time.Minute))
	c1, req, recv := stalled(w)
	var de *DeadlineError
	if err := c1.WaitDeadline(req); !errors.As(err, &de) {
		t.Fatalf("WaitDeadline = %v, want a *DeadlineError", err)
	}
	if de.Rank != 1 || len(de.Missing) != 1 || de.Missing[0].Seq != 0 || len(de.Missing[0].From) != 1 || de.Missing[0].From[0] != 0 {
		t.Errorf("diagnostic %+v, want rank 1 missing collective 0 from rank 0", de)
	}
	s.deliver(t, s.next(t))
	c1.Wait(req)
	if !slices.Equal(recv, block[:2]) {
		t.Errorf("received %v, want %v", recv, block[:2])
	}
	w.Shutdown()
}

// TestHardLimitFailsTheRank: past the hang timeout Wait panics with a
// WorldFailure that carries the same diagnostic.
func TestHardLimitFailsTheRank(t *testing.T) {
	w, _ := newScripted(2, WithFaults(&fault.Plan{JitterNs: 1}), WithHangTimeout(10*time.Millisecond), WithRetransmitTimeout(time.Minute))
	c1, req, _ := stalled(w)
	defer func() {
		wf, ok := recover().(WorldFailure)
		var de *DeadlineError
		if !ok || !errors.As(wf.Err, &de) || len(de.Missing) != 1 {
			t.Errorf("Wait panicked with %v, want a WorldFailure wrapping a *DeadlineError", wf)
		}
		w.Shutdown()
	}()
	c1.Wait(req)
	t.Error("Wait returned with its block still in the link")
}

// TestFailWakesParkedRank: Fail reaches a rank parked in Wait at once, the
// first cause sticks, and a closed world cannot be failed.
func TestFailWakesParkedRank(t *testing.T) {
	w, _ := newScripted(2, WithFaults(&fault.Plan{JitterNs: 1}), WithRetransmitTimeout(time.Minute))
	c1, req, _ := stalled(w)
	first := errors.New("first")
	woke := make(chan any)
	go func() {
		defer func() { woke <- recover() }()
		c1.Wait(req)
	}()
	for parked := false; !parked; _, parked = w.Parked(1, false) {
		time.Sleep(100 * time.Microsecond)
	}
	if what, _ := w.Parked(1, true); what != " collective seq 0 missing blocks from ranks [0]" {
		t.Errorf("parked rank described as %q", what)
	}
	w.Fail(first)
	w.Fail(errors.New("second"))
	if wf, ok := (<-woke).(WorldFailure); !ok || wf.Err != first {
		t.Errorf("parked rank woke with %v, want a WorldFailure carrying the first cause", wf)
	}
	if w.Failed() != first {
		t.Errorf("Failed() = %v, want the first cause", w.Failed())
	}
	closed, _ := newScripted(1)
	closed.Shutdown()
	closed.Fail(first)
	if closed.Failed() != nil {
		t.Errorf("a closed world was failed: %v", closed.Failed())
	}
}
