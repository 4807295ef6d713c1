package mem

import (
	"time"

	"offt/internal/arena"
	"offt/internal/mpi"
	"offt/internal/mpi/envelope"
	"offt/internal/mpi/fault"
)

// outMsg tracks an unacknowledged envelope on the sender side. The
// envelope format itself — and its binary wire framing, used by the net
// engine — lives in the shared package mpi/envelope; the mem engine
// delivers the same struct through memory.
type outMsg struct {
	env   *envelope.Envelope
	timer *time.Timer
}

// send routes one block from src to dst. The block is copied once, into a
// payload borrowed from the arena, and the handle changes owner with the
// message: transport → dst's mailbox → the schedule that claims it, which
// releases it after copying the block into its receive buffer. Without an
// active fault plan the message takes the direct path (immediate or
// delay-timed deposit); with one, every message goes through the
// retransmitting envelope transport.
func (w *World) send(src, dst, tag int, block []complex128) {
	payload := arena.Get(len(block))
	copy(payload.Data, block)
	w.stats.Sent.Add(1)
	if w.plan.Active() {
		// The outstanding set, a pending duplicate and a retransmit timer
		// alias this payload: the handle is dropped, never released.
		w.sendEnvelope(src, dst, tag, payload.Data)
		return
	}
	if !w.delayed {
		w.mu.Lock()
		w.depositLocked(dst, src, tag, payload)
		w.mu.Unlock()
		return
	}
	bytes := len(block) * mpi.Elem16
	d := time.Duration(w.mach.Latency(src, dst) + int64(float64(bytes)*w.mach.EffNsPerByte(src, dst, w.mach.Nodes(w.p))))
	w.mu.Lock()
	w.inFlight++
	w.mu.Unlock()
	time.AfterFunc(d, func() {
		w.mu.Lock()
		w.inFlight--
		closed := w.closed
		if !closed {
			w.depositLocked(dst, src, tag, payload)
		}
		w.mu.Unlock()
	})
}

// depositLocked delivers a payload to dst's mailbox (w.mu held).
func (w *World) depositLocked(dst, src, tag int, payload *arena.Slab) {
	w.boxes[dst].Put(src, tag, payload)
	w.stats.Delivered.Add(1)
	w.conds[dst].Broadcast()
}

// sendEnvelope registers the message as outstanding and starts delivery
// attempt 0. The message stays outstanding — with a pending retransmit
// timer — until a delivery is acknowledged by the receiver side.
func (w *World) sendEnvelope(src, dst, tag int, data []complex128) {
	env := &envelope.Envelope{Src: src, Dst: dst, Tag: tag, Data: data}
	env.Seal()
	om := &outMsg{env: env}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	if w.linkSeq == nil {
		w.linkSeq = make([]int64, w.p*w.p)
		w.dedup = make([]envelope.Dedup, w.p*w.p)
	}
	w.nextID++
	env.ID = w.nextID
	w.linkSeq[src*w.p+dst]++
	env.Seq = w.linkSeq[src*w.p+dst]
	w.outstanding[env.ID] = om
	w.mu.Unlock()
	w.transmit(om, 0)
}

// transmit performs one delivery attempt of an outstanding envelope,
// rolling the fault plan for this attempt, and arms the retransmission
// timer with capped exponential backoff. Acknowledged (or dead-world)
// messages are left alone.
func (w *World) transmit(om *outMsg, attempt int) {
	env := om.env
	w.mu.Lock()
	if w.closed || w.failed != nil || w.outstanding[env.ID] != om {
		w.mu.Unlock()
		return
	}
	w.mu.Unlock()
	if attempt > 0 {
		w.stats.Retransmits.Add(1)
	}
	d := w.plan.Decide(env.Src, env.Dst, env.Tag, env.ID, attempt)
	now := time.Since(w.epoch).Nanoseconds()
	// Per-rank degradation: a stalled NIC holds the message until the
	// window closes; a slow NIC scales the emulated link delay.
	delay := w.plan.StallEnd(env.Src, now) - now + d.DelayNs
	if w.delayed {
		bytes := len(env.Data) * mpi.Elem16
		link := float64(w.mach.Latency(env.Src, env.Dst)) +
			float64(bytes)*w.mach.EffNsPerByte(env.Src, env.Dst, w.mach.Nodes(w.p))
		delay += int64(link * w.plan.NICFactor(env.Src) * w.plan.LinkFactor(env.Src, env.Dst, now))
	}
	if d.Drop {
		w.stats.DropsInjected.Add(1)
	} else {
		payload := env.Data
		if d.Corrupt {
			w.stats.CorruptionsInjected.Add(1)
			payload = fault.CorruptCopy(env.Data, uint64(env.ID)<<8^uint64(attempt))
		}
		w.deliverAfter(delay, env, payload)
		if d.Duplicate {
			w.stats.DuplicatesInjected.Add(1)
			w.deliverAfter(delay, env, env.Data)
		}
	}
	rto := envelope.Backoff(w.rto, attempt)
	next := attempt + 1
	w.mu.Lock()
	if w.outstanding[env.ID] == om && !w.closed && w.failed == nil {
		if attempt > 0 {
			w.stats.Backoffs.Add(1)
		}
		om.timer = time.AfterFunc(time.Duration(delay)+rto, func() { w.transmit(om, next) })
	}
	w.mu.Unlock()
}

// deliverAfter schedules (or performs) one delivery of a payload copy.
func (w *World) deliverAfter(delayNs int64, env *envelope.Envelope, payload []complex128) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.inFlight++
	w.mu.Unlock()
	if delayNs <= 0 {
		w.deliverEnvelope(env, payload)
		return
	}
	time.AfterFunc(time.Duration(delayNs), func() { w.deliverEnvelope(env, payload) })
}

// deliverEnvelope is the receiver side of the self-healing transport:
// verify the checksum (corrupted deliveries are dropped and recovered by
// retransmission), discard duplicates, acknowledge, then deposit into the
// mailbox.
func (w *World) deliverEnvelope(env *envelope.Envelope, payload []complex128) {
	ok := envelope.Checksum(payload) == env.Sum
	w.mu.Lock()
	defer w.mu.Unlock()
	w.inFlight--
	if w.closed {
		return
	}
	if !ok {
		// No acknowledgement: the sender's retransmit timer recovers.
		w.stats.CorruptionsDetected.Add(1)
		return
	}
	w.ackLocked(env.ID)
	if w.dedup[env.Src*w.p+env.Dst].Duplicate(env.Seq) {
		w.stats.Dedups.Add(1)
		return
	}
	w.depositLocked(env.Dst, env.Src, env.Tag, &arena.Slab{Data: payload})
}

// ackLocked retires an outstanding envelope and stops its retransmit
// timer. The in-process delivery path doubles as the acknowledgement
// channel (a reliable control plane; only payload deliveries fault).
func (w *World) ackLocked(id int64) {
	om, live := w.outstanding[id]
	if !live {
		return
	}
	if om.timer != nil {
		om.timer.Stop()
	}
	delete(w.outstanding, id)
	w.stats.Acks.Add(1)
}

// shutdownTransport stops all pending retransmission timers when Run
// finishes (normally or on error) so a dead world cannot keep firing.
func (w *World) shutdownTransport() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closed = true
	for id, om := range w.outstanding {
		if om.timer != nil {
			om.timer.Stop()
		}
		delete(w.outstanding, id)
	}
}
