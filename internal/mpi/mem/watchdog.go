package mem

import (
	"fmt"
	"strings"
	"time"
)

// watchdog fails the world when it is provably stuck: every unfinished
// rank parked in Wait or Barrier, nothing scheduled for delivery and no
// unacknowledged envelope (whose retransmit timer would still make
// progress), sustained for the whole window. It polls rather than hooking
// every state change so the healthy-path overhead is zero; one reading is
// not atomic across the ranks, which the sustained window absorbs.
func (w *World) watchdog(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	ticker := time.NewTicker(min(max(w.watch/8, time.Millisecond), 50*time.Millisecond))
	defer ticker.Stop()
	var stuckSince time.Time
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		switch {
		case !w.stuck():
			stuckSince = time.Time{}
		case stuckSince.IsZero():
			stuckSince = time.Now()
		case time.Since(stuckSince) >= w.watch:
			w.Fail(w.deadlockErr())
			return
		}
	}
}

// stuck reports whether no rank of a live world can move right now.
func (w *World) stuck() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	blocked := 0
	for r, gen := range w.barrier {
		if _, parked := w.Parked(r, false); parked || gen != 0 {
			blocked++
		}
	}
	return blocked > 0 && blocked+w.finished == w.p &&
		w.wire.inFlight.Load() == 0 && w.Outstanding() == 0 && w.Failed() == nil
}

// deadlockErr renders the world's blocked state.
func (w *World) deadlockErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	var sb strings.Builder
	fmt.Fprintf(&sb, "mem: deadlock: all ranks blocked past %v with nothing in flight:", w.watch)
	for r, gen := range w.barrier {
		if missing, parked := w.Parked(r, true); parked {
			fmt.Fprintf(&sb, " rank %d in Wait:%s;", r, missing)
		} else if gen != 0 {
			fmt.Fprintf(&sb, " rank %d in Barrier generation %d (%d/%d arrived);", r, gen-1, w.barCount, w.p)
		}
	}
	return fmt.Errorf("%s", strings.TrimSuffix(sb.String(), ";"))
}
