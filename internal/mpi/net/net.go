// Package net implements the mpi.Comm interface across OS processes: a
// World spans one rank per process, connected pairwise by TCP over a
// full mesh formed at bootstrap (package-level Join; one coordinator
// address + a rank handshake). It is the third engine next to mem
// (goroutine ranks, in-process hand-off) and sim (virtual time).
//
// Delivery is package mpi/transport's envelope protocol, the same core the
// mem engine runs on; this package supplies the link — length-prefixed
// frames (package mpi/envelope) over one connection per peer, acks on the
// wire — and what only separate processes need: the bootstrap, a lost peer
// turned into a prompt world failure instead of a hang, the fin/Close
// teardown, and a barrier made of messages. TCP already guarantees
// delivery; the protocol layer exists so the fault-injection surfaces
// (mpi/fault chaos profiles) work unchanged above the socket.
//
// All four exchange schedules (package mpi/sched) run over this engine
// bit-identically to the mem engine: schedules, mailbox and communicator
// are the same code.
package net

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"offt/internal/mpi"
	"offt/internal/mpi/envelope"
	"offt/internal/mpi/sched"
	"offt/internal/mpi/transport"
)

// defaultHangTimeout mirrors the mem engine's watchdog default.
const defaultHangTimeout = 20 * time.Second

// World is this process's membership in a multi-process job: one local
// rank, p-1 peer connections. Create it with Join; a World runs one body
// (Run) and is then closed.
type World struct {
	*transport.World
	wire    wire
	rank, p int
	done    atomic.Bool // Run completed (teardown barrier passed)
	wg      sync.WaitGroup
}

// PeerError is the failure cause when a peer's connection dies on a live
// world: the survivors surface it promptly instead of hanging.
type PeerError struct {
	Rank int // local rank observing the loss
	Peer int // rank whose connection died
	Err  error
}

func (e *PeerError) Error() string {
	return fmt.Sprintf("net: rank %d: world failed: connection to rank %d lost: %v", e.Rank, e.Peer, e.Err)
}

func (e *PeerError) Unwrap() error { return e.Err }

// Run executes body on this process's rank and returns when it finishes.
// A teardown barrier after body keeps the process alive until every rank's
// body returned, so no peer tears its connections down under a still-
// working world. A panic in body — including the WorldFailure a failed
// world raises — is returned as an error. A World runs one body; call
// Close afterwards.
func (w *World) Run(body func(c *Comm)) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = w.Recovered(w.rank, rec)
		}
	}()
	c := &Comm{Comm: w.Comm(w.rank)}
	body(c)
	c.Barrier()
	w.done.Store(true)
	return nil
}

// Close tears the world down. After a completed Run (teardown barrier
// passed) the shutdown is graceful: the unacked window drains first
// (bounded), then each writer flushes what is queued — final barrier
// tokens, acks — then a fin departure marker, half-closes its
// connection (TCP FIN), and the readers drain each peer's stream to
// EOF before the sockets close fully. Draining both directions keeps
// either side from closing with unread data (which would RST the
// connection and destroy in-flight frames on the peer). After a failed or
// never-run world the teardown is abrupt — peers see an EOF with no fin
// and fail promptly, which is exactly the killed-process semantics.
// Idempotent.
func (w *World) Close() error {
	graceful := w.done.Load() && w.Failed() == nil
	if graceful {
		// Drain the unacked window before declaring the world closed. A
		// rank can pass the teardown barrier while a peer is still inside
		// it, waiting on this rank's final token — under fault injection
		// that token may still need retransmission cycles, and cancelling
		// its timer below would destroy it and hang the peer.
		deadline := time.Now().Add(2 * time.Second)
		for w.Outstanding() > 0 && w.Failed() == nil && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		graceful = w.Failed() == nil
	}
	if !w.Shutdown() {
		return nil
	}
	for _, pe := range w.wire.peers {
		if pe == nil {
			continue
		}
		if graceful {
			pe.enqueue(outFrame{b: envelope.AppendFin(nil)})
		}
		pe.beginClose()
	}
	flushed := make(chan struct{})
	go func() {
		for _, pe := range w.wire.peers {
			if pe != nil {
				<-pe.done
			}
		}
		close(flushed)
	}()
	select {
	case <-flushed:
	case <-time.After(2 * time.Second):
	}
	readersDone := make(chan struct{})
	go func() {
		w.wg.Wait()
		close(readersDone)
	}()
	if graceful {
		// Give every peer's stream the chance to drain to EOF before the
		// hard close below can discard it.
		select {
		case <-readersDone:
		case <-time.After(2 * time.Second):
		}
	}
	for _, pe := range w.wire.peers {
		if pe != nil {
			pe.conn.Close()
		}
	}
	<-readersDone
	return nil
}

// Comm is the local rank's communicator.
type Comm struct{ transport.Comm }

var _ mpi.Comm = (*Comm)(nil)

// Barrier blocks until all ranks arrive: a dissemination barrier of
// ⌈log2 p⌉ rounds, each a pairwise collective that sends one token to the
// rank 2^k ahead and takes one from the rank 2^k behind (so it works across
// processes, recovers under fault injection, respects the SPMD tag
// sequence and fails like any Wait). No rank leaves before every rank has
// entered.
func (c *Comm) Barrier() {
	p, rank := c.Size(), c.Rank()
	token, got := []complex128{1}, make([]complex128, 1)
	send, recv := make([]int, p), make([]int, p)
	for d := 1; d < p; d <<= 1 {
		dst, src := (rank+d)%p, (rank-d+p)%p
		send[dst], recv[src] = 1, 1
		c.Wait(sched.Post(c, mpi.Exchange{}, token, send, got, recv))
		send[dst], recv[src] = 0, 0
	}
}
