package net

import (
	"sync"
	"sync/atomic"
	"time"

	"offt/internal/arena"
	"offt/internal/mpi/envelope"
	"offt/internal/mpi/transport"
)

// maxFrameBytes bounds one wire frame (guards a malformed or hostile peer
// from forcing a huge allocation). 1 GiB covers any exchange this repo can
// produce with a wide margin.
const maxFrameBytes = 1 << 30

// outFrame is one encoded frame queued for a peer's writer. own, when set,
// is the arena buffer behind b, which the writer returns once the frame is
// on the wire.
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
		if fr.Kind == envelope.KindFin {
			pe.fin.Store(true)
		} else if err := w.Receive(pe.rank, &fr); err != nil {
			w.Fail(&PeerError{Rank: w.rank, Peer: pe.rank, Err: err})
		}
	}
}

// wire is the link of a world whose other ranks are across TCP: a message
// is encoded into an arena frame of its own, sized once, and queued on the
// destination's connection, whose writer releases the frame once it is on
// the wire; the far end's reader decodes it into that process's World.
type wire struct {
	world *transport.World
	peers []*peer // indexed by rank; nil at the local rank
}

// Direct sends the block as a tracked envelope: sequence id, checksum,
// receiver dedup and ack as under a plan, but written once — nothing above
// the socket can lose the frame, so no copy is kept to send again.
func (l *wire) Direct(src, dst, tag int, block []complex128) {
	env := envelope.Envelope{Src: src, Dst: dst, Tag: tag, Data: block}
	if l.world.Track(&env) {
		l.peers[dst].enqueue(dataFrame(&env))
	}
}

// Carry encodes data under env's header and queues the frame, after the
// injected delay if there is one: faults are applied above the socket as
// the mem engine applies them above its mailbox.
func (l *wire) Carry(env *envelope.Envelope, data []complex128, delayNs int64) {
	e := *env
	e.Data = data
	frame, pe := dataFrame(&e), l.peers[env.Dst]
	if delayNs <= 0 {
		pe.enqueue(frame)
		return
	}
	time.AfterFunc(time.Duration(delayNs), func() { pe.enqueue(frame) })
}

// Ack queues an ack frame for the envelope's sender. Acks ride the peer's
// outbox like any frame and are never fault-injected.
func (l *wire) Ack(id int64, from, to int) {
	ack := arena.GetBytes(envelope.AckFrameLen)
	l.peers[to].enqueue(outFrame{b: envelope.AppendAck(ack.Data[:0], id, from), own: ack})
}

// LinkNs is zero: the wire is real.
func (l *wire) LinkNs(src, dst, elems int) float64 { return 0 }

func dataFrame(env *envelope.Envelope) outFrame {
	buf := arena.GetBytes(envelope.DataFrameLen(len(env.Data)))
	return outFrame{b: envelope.AppendData(buf.Data[:0], env), own: buf}
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
	if !w.done.Load() && !pe.fin.Load() {
		w.Fail(&PeerError{Rank: w.rank, Peer: pe.rank, Err: err}) // a no-op on a closed world
	}
}
