package vclock

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestSingleProcAdvance(t *testing.T) {
	s := New(1)
	var end int64
	err := s.Run(func(p *Proc) {
		if p.Now() != 0 {
			t.Errorf("start time %d", p.Now())
		}
		p.Advance(10)
		p.Advance(5)
		end = p.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	if end != 15 {
		t.Errorf("end time %d, want 15", end)
	}
}

func TestNegativeAdvancePanicsIntoError(t *testing.T) {
	s := New(1)
	err := s.Run(func(p *Proc) { p.Advance(-1) })
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("want panic error, got %v", err)
	}
}

func TestProcsInterleaveInTimeOrder(t *testing.T) {
	// Two procs advancing by different steps must interleave by virtual
	// time, observable via a shared log appended at each step.
	s := New(2)
	var mu sync.Mutex
	var log []string
	err := s.Run(func(p *Proc) {
		step := int64(3)
		if p.ID() == 1 {
			step = 5
		}
		for i := 0; i < 4; i++ {
			p.Advance(step)
			mu.Lock()
			log = append(log, fmt.Sprintf("p%d@%d", p.ID(), p.Now()))
			mu.Unlock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Expected global order of (time, id): p0@3, p1@5, p0@6, p0@9, p1@10,
	// p0@12, p1@15, p1@20.
	want := []string{"p0@3", "p1@5", "p0@6", "p0@9", "p1@10", "p0@12", "p1@15", "p1@20"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Errorf("order:\n got %v\nwant %v", log, want)
	}
}

func TestTieBreakById(t *testing.T) {
	s := New(3)
	var mu sync.Mutex
	var order []int
	err := s.Run(func(p *Proc) {
		p.Advance(7) // all reach time 7
		mu.Lock()
		order = append(order, p.ID())
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[0 1 2]" {
		t.Errorf("tie order %v, want ids ascending", order)
	}
}

func TestParkWakeViaEvent(t *testing.T) {
	s := New(2)
	var got int64
	err := s.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Park() // woken by p1's event at t=100
			got = p.Now()
			return
		}
		p.Advance(40)
		peer := p.Peer(0)
		p.Schedule(100, func(now int64, w Waker) { w.Wake(peer, now) })
		p.Advance(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 100 {
		t.Errorf("woken at %d, want 100", got)
	}
}

func TestDirectWake(t *testing.T) {
	s := New(2)
	var got int64
	err := s.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Park()
			got = p.Now()
			return
		}
		p.Advance(33)
		p.Wake(p.Peer(0), 20) // clamped up to waker's now
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 33 {
		t.Errorf("woken at %d, want 33 (clamped to waker's clock)", got)
	}
}

func TestWakeNeverRewindsClock(t *testing.T) {
	s := New(2)
	var got int64
	err := s.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Advance(500)
			p.Park()
			got = p.Now()
			return
		}
		p.Advance(600)
		p.Wake(p.Peer(0), 600)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 600 {
		t.Errorf("woken at %d, want 600", got)
	}
	// And the symmetric case: wake time earlier than sleeper's clock.
	s2 := New(2)
	err = s2.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Advance(1000)
			p.Park()
			got = p.Now()
			return
		}
		p.Schedule(50, func(now int64, w Waker) {
			// p0 parks at 1000 > 50; this event fires first and would be a
			// lost wakeup, so wake from a later event instead.
		})
		p.Advance(2000)
		p.Wake(p.Peer(0), 2000)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2000 {
		t.Errorf("woken at %d, want 2000", got)
	}
}

func TestEventsRunBeforeProcsAtSameTime(t *testing.T) {
	s := New(1)
	var order []string
	err := s.Run(func(p *Proc) {
		p.Schedule(10, func(now int64, w Waker) { order = append(order, "event") })
		p.Advance(10)
		order = append(order, "proc")
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[event proc]" {
		t.Errorf("order %v", order)
	}
}

func TestEventChaining(t *testing.T) {
	s := New(1)
	var times []int64
	err := s.Run(func(p *Proc) {
		p.Schedule(5, func(now int64, w Waker) {
			times = append(times, now)
			w.Schedule(9, func(now int64, w Waker) {
				times = append(times, now)
			})
		})
		p.Advance(20)
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(times) != "[5 9]" {
		t.Errorf("times %v", times)
	}
}

func TestEventOrderBySeqAtSameTime(t *testing.T) {
	s := New(1)
	var order []int
	err := s.Run(func(p *Proc) {
		for i := 0; i < 5; i++ {
			i := i
			p.Schedule(10, func(now int64, w Waker) { order = append(order, i) })
		}
		p.Advance(10)
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[0 1 2 3 4]" {
		t.Errorf("same-time events out of creation order: %v", order)
	}
}

func TestDeadlockDetected(t *testing.T) {
	s := New(2)
	err := s.Run(func(p *Proc) {
		p.Park() // nobody will ever wake anyone
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("want deadlock error, got %v", err)
	}
}

func TestPanicPropagates(t *testing.T) {
	s := New(2)
	err := s.Run(func(p *Proc) {
		if p.ID() == 1 {
			panic("boom")
		}
		p.Park() // would deadlock, but the panic should surface first or the
		// failure must release this process either way
	})
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "boom") && !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("unexpected error %v", err)
	}
}

func TestScheduleInPastPanics(t *testing.T) {
	s := New(1)
	err := s.Run(func(p *Proc) {
		p.Advance(100)
		p.Schedule(50, func(now int64, w Waker) {})
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("want panic error, got %v", err)
	}
}

// collectTrace runs a randomized workload and returns the scheduler trace.
func collectTrace(seed int64, n int) []string {
	s := New(n)
	var trace []string
	s.TraceFn = func(line string) { trace = append(trace, line) }
	_ = s.Run(func(p *Proc) {
		rng := rand.New(rand.NewSource(seed + int64(p.ID())))
		for i := 0; i < 30; i++ {
			p.Advance(int64(rng.Intn(50) + 1))
			if rng.Intn(4) == 0 {
				peer := p.Peer((p.ID() + 1) % n)
				p.Schedule(p.Now()+int64(rng.Intn(100)), func(now int64, w Waker) {
					_ = peer // benign event
				})
			}
		}
	})
	return trace
}

func TestDeterministicTrace(t *testing.T) {
	a := collectTrace(42, 4)
	b := collectTrace(42, 4)
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Error("two identical simulations produced different traces")
	}
}

func TestQuickTimeMonotonePerProc(t *testing.T) {
	// Whatever the interleaving, each process's observed Now() never
	// decreases, and the sum of advances equals the final clock when the
	// process is never parked.
	f := func(seed int64, steps uint8) bool {
		n := 3
		s := New(n)
		type rec struct {
			last int64
			sum  int64
			ok   bool
		}
		recs := make([]rec, n)
		err := s.Run(func(p *Proc) {
			rng := rand.New(rand.NewSource(seed + int64(p.ID())))
			r := rec{ok: true}
			for i := 0; i < int(steps%40)+1; i++ {
				d := int64(rng.Intn(20))
				p.Advance(d)
				r.sum += d
				if p.Now() < r.last {
					r.ok = false
				}
				r.last = p.Now()
			}
			if p.Now() != r.sum {
				r.ok = false
			}
			recs[p.ID()] = r
		})
		if err != nil {
			return false
		}
		for _, r := range recs {
			if !r.ok {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestManyProcsStress(t *testing.T) {
	const n = 64
	s := New(n)
	total := make([]int64, n)
	err := s.Run(func(p *Proc) {
		rng := rand.New(rand.NewSource(int64(p.ID())))
		for i := 0; i < 100; i++ {
			d := int64(rng.Intn(1000))
			p.Advance(d)
			total[p.ID()] += d
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, tot := range total {
		if tot == 0 {
			t.Errorf("proc %d did no work", i)
		}
	}
}

func TestNPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(0)
}

func TestN(t *testing.T) {
	if got := New(5).N(); got != 5 {
		t.Errorf("N() = %d", got)
	}
}

func BenchmarkAdvanceYield(b *testing.B) {
	// Two processes forced to alternate: measures the baton-handoff cost
	// that dominates large simulations.
	s := New(2)
	n := b.N
	_ = s.Run(func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Advance(1)
		}
	})
}

func BenchmarkScheduleEvent(b *testing.B) {
	s := New(1)
	n := b.N
	_ = s.Run(func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Schedule(p.Now()+10, func(now int64, w Waker) {})
			p.Advance(20)
		}
	})
}

// TestTracePinned holds the scheduler's total order to a literal: the full
// trace text of a three-process scenario with a park woken from an event, a
// chained event, two events at one time, a direct wake clamped to the
// waker's clock and processes tying at equal times. TestDeterministicTrace
// compares two runs of one binary, so it cannot see a change that reorders
// consistently; this can.
func TestTracePinned(t *testing.T) {
	s := New(3)
	var trace []string
	s.TraceFn = func(line string) { trace = append(trace, line) }
	err := s.Run(func(p *Proc) {
		switch p.ID() {
		case 0:
			p.Park() // woken by p1's first event at t=100
			p.Advance(5)
			p.Wake(p.Peer(2), 90) // clamped up to 105
			p.Advance(15)         // ties with the chained event at 120
		case 1:
			p.Advance(40)
			peer := p.Peer(0)
			p.Schedule(100, func(now int64, w Waker) {
				w.Wake(peer, now)
				w.Schedule(120, func(int64, Waker) {})
			})
			p.Schedule(100, func(int64, Waker) {})
			p.Advance(60) // reaches 100: both events run first
			p.Advance(30)
		case 2:
			p.Advance(10)
			p.Park() // woken directly by p0
			p.Advance(15)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"grant p0 @0",
		"park p0 @0",
		"grant p1 @0",
		"grant p2 @0",
		"park p2 @10",
		"grant p1 @40",
		"event @100 seq1",
		"wake p0 @100",
		"event @100 seq2",
		"grant p0 @100",
		"grant p1 @100",
		"grant p0 @105",
		"wake p2 @105",
		"grant p2 @105",
		"event @120 seq3",
		"grant p0 @120",
		"done p0 @120",
		"grant p2 @120",
		"done p2 @120",
		"grant p1 @130",
		"done p1 @130",
	}
	if got := strings.Join(trace, "\n"); got != strings.Join(want, "\n") {
		t.Errorf("trace moved:\n%s", got)
	}
}
