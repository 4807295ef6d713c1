package net

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"offt/internal/arena"
	"offt/internal/mpi/envelope"
	"offt/internal/mpi/fault"
)

// maxFrameBytes bounds one wire frame (guards a malformed or hostile peer
// from forcing a huge allocation). 1 GiB covers any exchange this repo can
// produce with a wide margin.
const maxFrameBytes = 1 << 30

// outMsg tracks an unacknowledged envelope on the sender side: what names
// it to the fault plan and the ack, and — under an active fault plan only —
// frame, the one encoding every (re)transmission puts on the wire.
type outMsg struct {
	id       int64
	dst, tag int
	frame    []byte
	timer    *time.Timer
}

// outFrame is one encoded frame queued for a peer's writer. own, when set,
// is the arena buffer behind b: this is its only copy in flight, and the
// writer returns it once it is on the wire.
type outFrame struct {
	b   []byte
	own *arena.Bytes
}

// peer is one TCP connection to another rank: a reader goroutine (owned by
// the World) decodes inbound frames; a writer goroutine drains the
// unbounded outbox. The outbox is unbounded deliberately — the receive
// path enqueues acks, so a bounded queue could deadlock the protocol.
type peer struct {
	rank int
	conn connLike

	fin atomic.Bool // peer sent its graceful-departure marker

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []outFrame
	closing bool  // drain the queue, then exit the writer
	dead    bool  // conn failed; enqueue becomes a no-op
	werr    error // the write error that killed the conn, if any
	done    chan struct{}
}

// connLike is the subset of net.Conn the transport uses (test seam).
type connLike interface {
	Read(b []byte) (int, error)
	Write(b []byte) (int, error)
	Close() error
}

// writeCloser is the optional half-close a *net.TCPConn provides: the
// graceful teardown flushes, sends TCP FIN, and keeps reading, so neither
// side ever closes with unread data in its receive buffer (which would
// RST the connection and destroy in-flight frames on the other side).
type writeCloser interface {
	CloseWrite() error
}

func newPeer(rank int, conn connLike) *peer {
	pe := &peer{rank: rank, conn: conn, done: make(chan struct{})}
	pe.cond = sync.NewCond(&pe.mu)
	return pe
}

// enqueue hands one encoded frame to the writer. Never blocks.
func (pe *peer) enqueue(frame outFrame) {
	pe.mu.Lock()
	if pe.closing || pe.dead {
		pe.mu.Unlock()
		return
	}
	pe.queue = append(pe.queue, frame)
	pe.cond.Signal()
	pe.mu.Unlock()
}

// beginClose tells the writer to drain what is queued and exit; further
// enqueues are dropped.
func (pe *peer) beginClose() {
	pe.mu.Lock()
	pe.closing = true
	pe.cond.Broadcast()
	pe.mu.Unlock()
}

// writer is the per-peer write loop: it batches whatever is queued and
// puts it on the wire. After a close-drain it half-closes the connection
// (TCP FIN), leaving the read side open so the reader can drain the peer.
// On write error it marks the peer dead and tears the connection down;
// the reader is the single failure arbiter (it sees the resulting read
// error, and knows whether the peer departed gracefully).
func (w *World) writer(pe *peer) {
	defer close(pe.done)
	var batch []outFrame // the writer and the queue swap two backing arrays
	for {
		pe.mu.Lock()
		for len(pe.queue) == 0 && !pe.closing {
			pe.cond.Wait()
		}
		if len(pe.queue) == 0 && pe.closing {
			pe.mu.Unlock()
			if cw, ok := pe.conn.(writeCloser); ok {
				cw.CloseWrite()
			}
			return
		}
		batch, pe.queue = pe.queue, batch[:0]
		pe.mu.Unlock()
		for i, frame := range batch {
			_, err := pe.conn.Write(frame.b)
			frame.own.Release()
			batch[i] = outFrame{}
			if err != nil {
				pe.mu.Lock()
				pe.dead = true
				pe.queue = nil
				pe.werr = err
				pe.mu.Unlock()
				pe.conn.Close() // kick the reader; it decides the failure
				return
			}
		}
	}
}

// reader is the per-peer read loop: length-prefixed frames are decoded
// into data deliveries, acks, and the fin departure marker. Any read
// error on a live world whose peer did not announce a graceful exit is a
// lost peer — the world fails rather than hang.
func (w *World) reader(pe *peer) {
	defer w.wg.Done()
	var scratch []byte
	for {
		fr, s, err := envelope.Read(pe.conn, maxFrameBytes, scratch)
		scratch = s
		if err != nil {
			pe.mu.Lock()
			if pe.werr != nil {
				err = pe.werr
			}
			pe.mu.Unlock()
			w.connLost(pe, err)
			return
		}
		switch fr.Kind {
		case envelope.KindData:
			w.deliverData(pe.rank, &fr.Env, fr.Payload)
		case envelope.KindAck:
			w.ack(fr.AckID)
		case envelope.KindFin:
			pe.fin.Store(true)
		}
	}
}

// send routes one block from this rank to dst. The block is copied once —
// encoded into an arena frame sized for it up front — and is the caller's
// again when send returns. Every message rides the envelope protocol:
// sequence id, checksum, receiver dedup, ack. Without an active fault plan
// nothing above the socket can lose the frame: it is written once and the
// writer returns it to the arena. With one, faults are injected above the
// socket as the mem engine injects them above its mailbox and the message
// is retransmitted with capped backoff until acknowledged; the outstanding
// set, queued copies and the retransmit timer alias the frame then, so its
// handle is dropped. Called only by the rank's own goroutine.
func (w *World) send(dst, tag int, data []complex128) {
	if dst == w.rank {
		panic("net: schedule sent to self")
	}
	w.stats.Sent.Add(1)
	w.nextID++
	w.linkSeq[dst]++
	env := envelope.Envelope{ID: w.nextID, Seq: w.linkSeq[dst], Src: w.rank, Dst: dst, Tag: tag, Data: data}
	env.Seal()
	buf := arena.GetBytes(envelope.DataFrameLen(len(data)))
	frame := envelope.AppendData(buf.Data[:0], &env)
	om := &outMsg{id: env.ID, dst: dst, tag: tag}
	active := w.plan.Active()
	if active {
		om.frame = frame
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.outstanding[om.id] = om
	w.mu.Unlock()
	if active {
		w.transmit(om, 0)
	} else {
		w.peers[dst].enqueue(outFrame{b: frame, own: buf})
	}
}

// transmit performs one delivery attempt of an envelope outstanding under
// an active fault plan, rolling the plan for this attempt, and arms the
// retransmission timer with capped exponential backoff. Acknowledged (or
// dead-world) messages are left alone.
func (w *World) transmit(om *outMsg, attempt int) {
	w.mu.Lock()
	if w.closed || w.failed != nil || w.outstanding[om.id] != om {
		w.mu.Unlock()
		return
	}
	w.mu.Unlock()
	if attempt > 0 {
		w.stats.Retransmits.Add(1)
	}
	d := w.plan.Decide(w.rank, om.dst, om.tag, om.id, attempt)
	now := time.Since(w.epoch).Nanoseconds()
	// Per-rank degradation: a stalled NIC holds the frame until the window
	// closes; link-factor delay emulation is left to TCP itself here.
	delay := w.plan.StallEnd(w.rank, now) - now + d.DelayNs
	if d.Drop {
		w.stats.DropsInjected.Add(1)
	} else {
		frame := om.frame
		if d.Corrupt {
			w.stats.CorruptionsInjected.Add(1)
			frame = corruptFrame(om.frame, uint64(om.id)<<8^uint64(attempt))
		}
		pe := w.peers[om.dst]
		w.enqueueAfter(pe, frame, delay)
		if d.Duplicate {
			w.stats.DuplicatesInjected.Add(1)
			w.enqueueAfter(pe, om.frame, delay)
		}
	}
	rto := envelope.Backoff(w.rto, attempt)
	next := attempt + 1
	w.mu.Lock()
	if w.outstanding[om.id] == om && !w.closed && w.failed == nil {
		if attempt > 0 {
			w.stats.Backoffs.Add(1)
		}
		om.timer = time.AfterFunc(time.Duration(delay)+rto, func() { w.transmit(om, next) })
	}
	w.mu.Unlock()
}

// corruptFrame re-encodes a clean data frame with one payload bit flipped
// and the clean checksum kept, so the receiver must detect it.
func corruptFrame(clean []byte, salt uint64) []byte {
	fr, err := envelope.Decode(clean[envelope.PrefixBytes:])
	if err != nil {
		panic("net: own frame does not decode: " + err.Error())
	}
	fr.Env.Data = fault.CorruptCopy(fr.Env.Data, salt)
	fr.Payload.Release()
	return envelope.AppendData(nil, &fr.Env)
}

// enqueueAfter hands a frame to the peer's writer, optionally after an
// injected delay.
func (w *World) enqueueAfter(pe *peer, frame []byte, delayNs int64) {
	if delayNs <= 0 {
		pe.enqueue(outFrame{b: frame})
		return
	}
	time.AfterFunc(time.Duration(delayNs), func() { pe.enqueue(outFrame{b: frame}) })
}

// ErrCorruptFrame is the cause of the world failure a frame that fails its
// checksum raises on a world without an active fault plan: its sender
// wrote it once and keeps no copy to send again.
var ErrCorruptFrame = errors.New("frame failed its checksum and no fault plan is attached to resend it")

// deliverData is the receiver side of the self-healing transport: verify
// the checksum, discard duplicates, acknowledge, then deposit into the
// mailbox. A corrupted delivery is dropped unacknowledged: under an active
// fault plan the sender's retransmission recovers it; without one nothing
// will, so the world fails at once instead of hanging to the timeout. Acks
// ride the peer's outbox like any frame and are never fault-injected.
// payload, the arena slab holding env.Data, moves into the mailbox with an
// accepted message and back to the arena with a rejected one; from is the
// rank whose connection carried the frame.
func (w *World) deliverData(from int, env *envelope.Envelope, payload *arena.Slab) {
	if !env.Verify() {
		w.stats.CorruptionsDetected.Add(1)
		payload.Release()
		if !w.plan.Active() {
			w.fail(&PeerError{Rank: w.rank, Peer: from, Err: ErrCorruptFrame})
		}
		return
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	dup := w.dedup[env.Src].Duplicate(env.Seq)
	if dup {
		w.stats.Dedups.Add(1)
	} else {
		w.stats.Delivered.Add(1)
		w.box.Put(env.Src, env.Tag, payload)
		w.cond.Broadcast()
	}
	w.mu.Unlock()
	if dup {
		payload.Release()
	}
	ack := arena.GetBytes(envelope.AckFrameLen)
	w.peers[env.Src].enqueue(outFrame{b: envelope.AppendAck(ack.Data[:0], env.ID, w.rank), own: ack})
}

// ack retires an outstanding envelope and stops its retransmit timer.
func (w *World) ack(id int64) {
	w.mu.Lock()
	om, live := w.outstanding[id]
	if live {
		if om.timer != nil {
			om.timer.Stop()
		}
		delete(w.outstanding, id)
		w.stats.Acks.Add(1)
	}
	w.mu.Unlock()
}

// connLost handles a failed peer connection: on a live world it is fatal
// (the missing rank would otherwise hang every collective — surfacing a
// world failure is the net engine's ErrWorldFailed semantics). It is
// expected teardown noise when this world is shutting down, finished its
// teardown barrier, or the peer announced a graceful departure (fin
// frame) before the EOF. TCP ordering makes the fin check race-free: the
// reader observes EOF only after consuming every frame the peer flushed,
// so a graceful peer's fin — and all data before it — have already been
// processed by the time the read error surfaces.
func (w *World) connLost(pe *peer, err error) {
	w.mu.Lock()
	quiet := w.closed || w.done || pe.fin.Load()
	w.mu.Unlock()
	if quiet {
		return
	}
	w.fail(&PeerError{Rank: w.rank, Peer: pe.rank, Err: err})
}
