package transport

import (
	"errors"
	"testing"

	"offt/internal/arena"
	"offt/internal/mpi/envelope"
	"offt/internal/mpi/fault"
)

// FuzzDeliver feeds the receiver of a one-rank world (rank 1 of 3, the net
// engine's shape) arbitrary decoded frames as if they had arrived from
// rank from. Whatever the header says, Receive delivers the message,
// drops it, or reports an error for the link to fail the world with; it
// never panics, and it delivers only what the carrying connection may
// send to this rank with an intact payload.
func FuzzDeliver(f *testing.F) {
	// kind, id, seq, src, dst, tag, ackFrom, from, payload elements, sealed, plan
	f.Add(envelope.KindData, int64(1), int64(1), 0, 1, 3, 0, 0, uint8(3), true, false)   // accepted
	f.Add(envelope.KindData, int64(1), int64(1), 7, 1, 3, 0, 0, uint8(3), true, false)   // source out of range
	f.Add(envelope.KindData, int64(1), int64(1), 1, 1, 3, 0, 0, uint8(3), true, false)   // source is the receiver
	f.Add(envelope.KindData, int64(1), int64(1), 2, 1, 3, 0, 0, uint8(3), true, false)   // source is not the carrier
	f.Add(envelope.KindData, int64(1), int64(1), 0, 2, 3, 0, 0, uint8(3), true, false)   // destination elsewhere
	f.Add(envelope.KindData, int64(1), int64(1), 0, -1, -3, 0, 0, uint8(0), true, false) // negative header fields
	f.Add(envelope.KindData, int64(1), int64(1), 0, 1, 3, 0, 0, uint8(3), false, false)  // corrupt, nobody to resend
	f.Add(envelope.KindData, int64(1), int64(1), 0, 1, 3, 0, 0, uint8(3), false, true)   // corrupt under a plan
	f.Add(envelope.KindData, int64(9), int64(-4), 2, 1, 0, 0, 2, uint8(1), true, true)   // sequence number below the window
	f.Add(envelope.KindAck, int64(1), int64(0), 0, 0, 0, 0, 0, uint8(0), false, false)   // ack of nothing outstanding
	f.Add(envelope.KindAck, int64(1), int64(0), 0, 0, 0, 7, 0, uint8(0), false, false)   // ack signed by a third rank
	f.Add(envelope.KindFin, int64(0), int64(0), 0, 0, 0, 0, 0, uint8(0), false, false)   // not a frame for Receive
	f.Add(byte(200), int64(0), int64(0), 0, 1, 0, 0, 0, uint8(0), true, false)           // unknown kind
	f.Fuzz(func(t *testing.T, kind byte, id, seq int64, src, dst, tag, ackFrom, from int, n uint8, sealed, plan bool) {
		cfg := Config{Name: "fuzz"}
		if plan {
			cfg.Plan = &fault.Plan{JitterNs: 1}
		}
		link := &script{carried: make(chan carry, 1)}
		w := New(3, 1, 2, link, cfg)
		link.w = w
		from = (from%3 + 3) % 3 // the engine's own index of the carrying connection
		if from == 1 {
			from = 0
		}
		data := make([]complex128, n)
		for i := range data {
			data[i] = complex(float64(i), float64(seq))
		}
		fr := envelope.Frame{Kind: kind, AckID: id, AckFrom: ackFrom,
			Env: envelope.Envelope{ID: id, Seq: seq, Src: src, Dst: dst, Tag: tag, Data: data}}
		if sealed {
			fr.Env.Seal()
		} else {
			fr.Env.Sum = envelope.Checksum(data) + 1
		}
		// Twice: the second time a delivered message is a duplicate.
		for round := 0; round < 2; round++ {
			fr.Payload = &arena.Slab{Data: data}
			err := w.Receive(from, &fr)
			if err != nil && !errors.Is(err, envelope.ErrBadHeader) && !errors.Is(err, ErrCorruptFrame) {
				t.Fatalf("Receive returned an error no link expects: %v", err)
			}
			delivered := w.Health().Delivered
			acceptable := kind == envelope.KindData && src == from && dst == 1 && sealed && seq >= 1 // a link counts from 1
			if (err != nil || !acceptable) && delivered != 0 {
				t.Fatalf("delivered a frame it had to refuse (err %v): kind %d src %d dst %d seq %d from %d sealed %v", err, kind, src, dst, seq, from, sealed)
			}
			if acceptable && (err != nil || delivered != 1) {
				t.Fatalf("round %d: acceptable frame: err %v, %d delivered, want exactly one delivery", round, err, delivered)
			}
		}
	})
}
