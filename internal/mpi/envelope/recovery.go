package envelope

import (
	"sync/atomic"
	"time"

	"offt/internal/mpi"
	"offt/internal/telemetry"
)

// Counters aggregates a world's transport-recovery activity: one set in
// the core both engines run on, so mpi.Health means the same thing on both.
// All fields are updated atomically: senders, delivery timers and
// retransmit timers never contend on a world lock just to count.
type Counters struct {
	Sent, Delivered                    atomic.Int64
	DropsInjected, CorruptionsInjected atomic.Int64
	DuplicatesInjected, Retransmits    atomic.Int64
	Dedups, CorruptionsDetected        atomic.Int64
	Acks, Backoffs                     atomic.Int64
}

// Snapshot reads the counters into an mpi.Health.
func (s *Counters) Snapshot() mpi.Health {
	return mpi.Health{
		Sent:                s.Sent.Load(),
		Delivered:           s.Delivered.Load(),
		DropsInjected:       s.DropsInjected.Load(),
		CorruptionsInjected: s.CorruptionsInjected.Load(),
		DuplicatesInjected:  s.DuplicatesInjected.Load(),
		Retransmits:         s.Retransmits.Load(),
		Dedups:              s.Dedups.Load(),
		CorruptionsDetected: s.CorruptionsDetected.Load(),
		Acks:                s.Acks.Load(),
		Backoffs:            s.Backoffs.Load(),
	}
}

// Register bridges the counters into a telemetry registry under
// "<engine>.transport.*". They stay atomics owned by the transport; the
// registry reads them lazily at snapshot time, so there is no double
// counting and no hot-path cost. Safe on a nil registry.
func (s *Counters) Register(r *telemetry.Registry, engine string) {
	if r == nil {
		return
	}
	for name, load := range map[string]func() int64{
		"sent": s.Sent.Load, "delivered": s.Delivered.Load,
		"retransmits": s.Retransmits.Load, "dedups": s.Dedups.Load,
		"acks": s.Acks.Load, "backoffs": s.Backoffs.Load,
		"drops_injected": s.DropsInjected.Load, "corruptions_injected": s.CorruptionsInjected.Load,
		"duplicates_injected": s.DuplicatesInjected.Load, "corruptions_detected": s.CorruptionsDetected.Load,
	} {
		r.Func(engine+".transport."+name, load)
	}
}

// Backoff is the retransmission timeout after the given delivery attempt:
// rto doubled per attempt, capped at 16×.
func Backoff(rto time.Duration, attempt int) time.Duration { return rto << min(attempt, 4) }
