package mem

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"offt/internal/mpi"
	"offt/internal/mpi/sched"
)

// blockInfo records what a parked rank is blocked on, for the deadlock
// watchdog. The zero value means "not blocked". Parking only notes the
// requests; what they still miss is worked out if the watchdog fires.
type blockInfo struct {
	kind blockKind
	reqs []mpi.Request // wait: the caller's requests, frozen while it is parked
	gen  int           // barrier: generation being waited on
}

type blockKind int

const (
	notBlocked blockKind = iota
	blockedWait
	blockedBarrier
)

// missingLocked summarizes a parked rank's incomplete requests: their
// collective sequence numbers and the union of source ranks not yet
// delivered (w.mu held: the pending sets are only mutated by the owning
// rank, which is parked).
func missingLocked(reqs []mpi.Request) (allSeqs, allFrom []int) {
	from := map[int]bool{}
	for _, r := range reqs {
		if r == nil {
			continue
		}
		seqs, missing := r.(sched.Request).Missing()
		if len(seqs) == 0 {
			continue
		}
		allSeqs = append(allSeqs, seqs...)
		for _, s := range missing {
			from[s] = true
		}
	}
	for s := range from {
		allFrom = append(allFrom, s)
	}
	sort.Ints(allSeqs)
	sort.Ints(allFrom)
	return allSeqs, allFrom
}

// DeadlineError reports a Wait that exceeded its soft deadline: which
// collectives (by sequence number) are incomplete and which source ranks'
// blocks are missing.
type DeadlineError struct {
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
	var sb strings.Builder
	fmt.Fprintf(&sb, "mem: rank %d: wait deadline %v exceeded:", e.Rank, e.Timeout)
	for _, m := range e.Missing {
		fmt.Fprintf(&sb, " collective seq %d missing blocks from ranks %v;", m.Seq, m.From)
	}
	return strings.TrimSuffix(sb.String(), ";")
}

// deadlineErrLocked builds the diagnostic for a timed-out wait (w.mu held).
func (c *Comm) deadlineErrLocked(reqs []mpi.Request, limit time.Duration) *DeadlineError {
	e := &DeadlineError{Rank: c.rank, Timeout: limit}
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

// watchdog fails the world when it is provably stuck: every unfinished
// rank parked in Wait or Barrier, nothing scheduled for delivery and no
// unacknowledged envelope (whose retransmit timer would still make
// progress), sustained for the whole hang timeout. It polls rather than
// hooking every state change so the healthy-path overhead is zero.
func (w *World) watchdog(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	interval := w.hangTimeout / 8
	if interval > 50*time.Millisecond {
		interval = 50 * time.Millisecond
	}
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	var stuckSince time.Time
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		w.mu.Lock()
		blocked := 0
		for _, b := range w.blocked {
			if b.kind != notBlocked {
				blocked++
			}
		}
		stuck := blocked > 0 && blocked+w.finished == w.p &&
			w.inFlight == 0 && len(w.outstanding) == 0 && w.failed == nil && !w.closed
		switch {
		case !stuck:
			stuckSince = time.Time{}
			w.mu.Unlock()
		case stuckSince.IsZero():
			stuckSince = time.Now()
			w.mu.Unlock()
		case time.Since(stuckSince) < w.hangTimeout:
			w.mu.Unlock()
		default:
			w.failed = w.deadlockErrLocked()
			for _, c := range w.conds {
				c.Broadcast()
			}
			w.barCond.Broadcast()
			w.mu.Unlock()
			return
		}
	}
}

// deadlockErrLocked renders the world's blocked state (w.mu held).
func (w *World) deadlockErrLocked() error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "mem: deadlock: all ranks blocked past %v with nothing in flight:", w.hangTimeout)
	for r, b := range w.blocked {
		switch b.kind {
		case blockedWait:
			seqs, missing := missingLocked(b.reqs)
			fmt.Fprintf(&sb, " rank %d in Wait on collective seq %v missing blocks from ranks %v;", r, seqs, missing)
		case blockedBarrier:
			fmt.Fprintf(&sb, " rank %d in Barrier generation %d (%d/%d arrived);", r, b.gen, w.barCount, w.p)
		}
	}
	return fmt.Errorf("%s", strings.TrimSuffix(sb.String(), ";"))
}
