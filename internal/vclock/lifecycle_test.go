package vclock

import (
	"fmt"
	"runtime"
	"testing"
)

// TestRunLeavesNoGoroutine checks the lifecycle of the process coroutines:
// however Run ends — every body returning, a deadlock, a body panicking
// while the others are parked, a negative Advance — every body has been
// unwound when it returns, so the goroutine count is back where it started,
// and the error text is exactly what callers have always seen.
func TestRunLeavesNoGoroutine(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		body func(p *Proc)
		want string // error text; "" for success
	}{
		{"normal", 3, func(p *Proc) {
			p.Advance(int64(p.ID() + 1))
			if p.ID() == 0 {
				p.Park()
			} else if p.ID() == 2 {
				p.Wake(p.Peer(0), p.Now())
			}
		}, ""},
		{"deadlock", 3, func(p *Proc) {
			p.Advance(int64(5 * p.ID()))
			if p.ID() != 1 {
				p.Park()
			}
		}, "vclock: deadlock: p0=waiting@0 p1=done@5 p2=waiting@10 events=0"},
		{"panic", 3, func(p *Proc) {
			if p.ID() == 1 {
				p.Advance(3)
				panic("boom")
			}
			p.Park()
		}, "vclock: process 1 panicked: boom"},
		{"negative advance", 2, func(p *Proc) {
			if p.ID() == 0 {
				p.Park()
			}
			p.Advance(-1)
		}, "vclock: process 1 panicked: vclock: negative advance -1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			err := New(tc.n).Run(tc.body)
			if after := runtime.NumGoroutine(); after != before {
				t.Errorf("%d goroutines before Run, %d after", before, after)
			}
			if got := fmt.Sprint(err); tc.want == "" && err != nil || tc.want != "" && got != tc.want {
				t.Errorf("error %q, want %q", got, tc.want)
			}
		})
	}
}

func TestRunTwiceIsAnError(t *testing.T) {
	s := New(2)
	if err := s.Run(func(p *Proc) { p.Advance(1) }); err != nil {
		t.Fatal(err)
	}
	ran := false
	err := s.Run(func(p *Proc) { ran = true })
	if err == nil || err.Error() != "vclock: Run called twice" || ran {
		t.Errorf("second Run: error %v, bodies ran %v", err, ran)
	}
}

// TestEventPanicUnwindsBodies: a panic out of an event callback is a bug in
// the caller and propagates out of Run, but not past suspended coroutines.
func TestEventPanicUnwindsBodies(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		defer func() {
			if r := recover(); r != "bad event" {
				t.Errorf("recovered %v, want the event's panic", r)
			}
		}()
		_ = New(2).Run(func(p *Proc) {
			if p.ID() == 0 {
				p.Schedule(10, func(int64, Waker) { panic("bad event") })
			}
			p.Park()
		})
	}()
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("%d goroutines before Run, %d after", before, after)
	}
}
