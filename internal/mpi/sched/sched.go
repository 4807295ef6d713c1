// Package sched implements the tunable all-to-all exchange schedules —
// pairwise, windowed pairwise, Bruck, and the hierarchical node-aware
// exchange — as engine-independent state machines. The mem engine (ranks
// are goroutines, mailbox is shared memory) and the net engine (ranks are
// OS processes, mailbox is fed by TCP readers) both drive these machines
// through the Port interface, so every schedule runs bit-identically over
// either transport.
//
// All four schedules produce receive buffers bit-identical to pairwise —
// blocks are routed differently but land byte-for-byte at the same
// offsets. Multi-message schedules reserve one collective sequence number
// per distinct message class (Bruck: one per round; hierarchical: one per
// protocol phase), so the transport's (src, tag) matching stays
// unambiguous even when a fault plan delays or duplicates deliveries
// across rounds. Combined packets ride inside ordinary []complex128
// payloads with header elements encoding (origin, dest, length) as exact
// small integers in the float64 components, which keeps the
// checksum/retransmit transport and the delay model oblivious to
// schedules.
package sched

import (
	"fmt"
	"math/bits"

	"offt/internal/arena"
	"offt/internal/mpi"
)

// Port is the engine surface a schedule runs against: one rank's sending,
// claiming and scratch facilities. All methods are called only by the
// owning rank's goroutine.
type Port interface {
	// Rank and Size identify this rank within its world.
	Rank() int
	Size() int
	// NextTags reserves n consecutive collective sequence numbers and
	// returns the first (the SPMD tag-alignment contract: every rank
	// reserves the same tags for the same collective).
	NextTags(n int) int
	// Send hands one block to the transport, which copies it into a buffer
	// of its own before returning: data is the caller's again at once.
	Send(dst, tag int, data []complex128)
	// TryClaim removes the first mailbox message from (src, tag) and
	// returns its payload handle, or nil if none has arrived. The caller
	// owns the payload until it hands it back with Release.
	TryClaim(src, tag int) *arena.Slab
	// Release ends the caller's ownership of a claimed payload. Every
	// handle TryClaim returned is released exactly once, and its Data is
	// not read afterwards: the engine reuses the buffer for a later message.
	Release(payload *arena.Slab)
	// Queued reports whether a message from (src, tag) is in the mailbox.
	// Called with the engine's park lock held (the wait predicate).
	Queued(src, tag int) bool
	// Scratch returns a reusable packet-assembly buffer of length n
	// (Bruck/hier combined packets); contents are consumed by Send before
	// the next call.
	Scratch(n int) []complex128
	// NodeSize is the engine's default ranks-per-node grouping for the
	// hierarchical schedule (≥ 1), used when the Exchange does not pin one.
	NodeSize() int
}

// Request is the engine-side contract every schedule implements. All
// methods are called only by the owning rank's goroutine; Queued is
// additionally called with the engine's park lock held.
type Request interface {
	// Drain claims whatever has arrived, releases any schedule-gated sends
	// that became eligible, and reports completion.
	Drain() bool
	// Queued reports whether the mailbox holds something this request can
	// consume right now — the engine wait loop's park predicate.
	Queued() bool
	// Missing summarizes incomplete work as (collective sequence numbers,
	// source ranks) for watchdog and deadline diagnostics.
	Missing() (seqs []int, from []int)
}

// DrainAll drains every (non-nil) request and reports whether all are
// complete: an engine's Test.
func DrainAll(reqs []mpi.Request) bool {
	all := true
	for _, r := range reqs {
		if r != nil && !r.(Request).Drain() {
			all = false
		}
	}
	return all
}

// AnyQueued reports whether the mailbox holds something one of the
// requests can consume: an engine's park predicate, called with its park
// lock held.
func AnyQueued(reqs []mpi.Request) bool {
	for _, r := range reqs {
		if r != nil && r.(Request).Queued() {
			return true
		}
	}
	return false
}

// Post validates the counts, computes both offset vectors, and starts a
// non-blocking all-to-all under the given exchange schedule (pairwise by
// default). The send buffer is consumed as messages are handed to the
// transport; inbound blocks are copied into recv during Drain. The counts
// slices may be reused by the caller immediately (they are copied); send
// must stay frozen until the request completes.
func Post(port Port, ex mpi.Exchange, send []complex128, sendCounts []int, recv []complex128, recvCounts []int) Request {
	p := port.Size()
	if len(sendCounts) != p || len(recvCounts) != p {
		panic(fmt.Sprintf("mpi/sched: counts length %d/%d, want %d", len(sendCounts), len(recvCounts), p))
	}
	// One backing slice for the request's three per-rank vectors. The
	// receive counts are copied: callers may reuse their counts arrays for
	// the next collective while this request is still in flight (the
	// Ialltoallv counts-aliasing contract).
	ints := make([]int, 3*p)
	rc, offsets, soff := ints[:p:p], ints[p:2*p:2*p], ints[2*p:]
	copy(rc, recvCounts)
	recvCounts = rc
	off := 0
	for s := 0; s < p; s++ {
		offsets[s] = off
		off += recvCounts[s]
	}
	if off > len(recv) {
		panic(fmt.Sprintf("mpi/sched: recv buffer %d too small for counts (%d)", len(recv), off))
	}
	o := 0
	for r := 0; r < p; r++ {
		soff[r] = o
		o += sendCounts[r]
	}
	if o > len(send) {
		panic(fmt.Sprintf("mpi/sched: send buffer %d too small for counts (%d)", len(send), o))
	}
	if p > 1 {
		switch ex.Alg {
		case mpi.CommBruck:
			return postBruck(port, send, sendCounts, soff, recv, recvCounts, offsets)
		case mpi.CommHier:
			return postHier(port, ex, send, sendCounts, soff, recv, recvCounts, offsets)
		case mpi.CommWindowed:
			if w := window(ex); w < p-1 {
				return postWindowed(port, send, sendCounts, soff, recv, recvCounts, offsets, w)
			}
		}
	}
	return postPairwise(port, send, sendCounts, soff, recv, recvCounts, offsets)
}

// window resolves the windowed schedule's in-flight cap.
func window(ex mpi.Exchange) int {
	if ex.Window > 0 {
		return ex.Window
	}
	return mpi.DefaultWindow
}

// nodeSize resolves the hierarchical schedule's ranks-per-node grouping.
func nodeSize(port Port, ex mpi.Exchange) int {
	ns := ex.NodeSize
	if ns <= 0 {
		ns = port.NodeSize()
	}
	if ns < 1 {
		ns = 1
	}
	return ns
}

// ---- pending sets -----------------------------------------------------------

// pendSet is a set of ranks still owed something, as a bitset plus a live
// count: no per-collective map, and iteration in rank order.
type pendSet struct {
	words []uint
	n     int
}

func newPendSet(p int) pendSet {
	return pendSet{words: make([]uint, (p+bits.UintSize-1)/bits.UintSize)}
}

func (s *pendSet) add(i int) {
	s.words[i/bits.UintSize] |= 1 << (i % bits.UintSize)
	s.n++
}

func (s *pendSet) remove(i int) {
	s.words[i/bits.UintSize] &^= 1 << (i % bits.UintSize)
	s.n--
}

// next returns the smallest member >= from, or -1. Removing the member
// just returned is safe while iterating.
func (s *pendSet) next(from int) int {
	for w := from / bits.UintSize; w < len(s.words); w++ {
		word := s.words[w]
		if w == from/bits.UintSize {
			word &^= 1<<(from%bits.UintSize) - 1
		}
		if word != 0 {
			return w*bits.UintSize + bits.TrailingZeros(word)
		}
	}
	return -1
}

// members appends the set's ranks to dst in ascending order.
func (s *pendSet) members(dst []int) []int {
	for i := s.next(0); i >= 0; i = s.next(i + 1) {
		dst = append(dst, i)
	}
	return dst
}

// ---- pairwise --------------------------------------------------------------

// pairRequest tracks a pending pairwise all-to-all: which source blocks
// are still outstanding and where to copy them. It is also the receive
// core the windowed schedule embeds.
type pairRequest struct {
	port       Port
	tag        int
	recv       []complex128
	recvCounts []int
	offsets    []int
	pending    pendSet // source ranks not yet copied in
}

// postPairwise is the historical eager schedule: every peer's block is
// handed to the transport at post time, in round-robin distance order.
func postPairwise(port Port, send []complex128, sendCounts, soff []int, recv []complex128, recvCounts, offsets []int) *pairRequest {
	p, rank := port.Size(), port.Rank()
	tag := port.NextTags(1)
	req := newPairRequest(port, tag, recv, recvCounts, offsets)
	// Zero-count blocks are skipped on both sides, so sub-grid collectives
	// only touch their real peers.
	for i := 1; i < p; i++ {
		dst := (rank + i) % p
		if sendCounts[dst] > 0 {
			port.Send(dst, tag, send[soff[dst]:soff[dst]+sendCounts[dst]])
		}
	}
	copy(recv[offsets[rank]:offsets[rank]+sendCounts[rank]], send[soff[rank]:soff[rank]+sendCounts[rank]])
	return req
}

// newPairRequest builds the receive-tracking core shared by the pairwise
// and windowed schedules. recvCounts and offsets are Post's own copies.
func newPairRequest(port Port, tag int, recv []complex128, recvCounts, offsets []int) *pairRequest {
	p := port.Size()
	req := &pairRequest{port: port, tag: tag, recv: recv, recvCounts: recvCounts, offsets: offsets, pending: newPendSet(p)}
	for s := 0; s < p; s++ {
		if s != port.Rank() && recvCounts[s] > 0 {
			req.pending.add(s)
		}
	}
	return req
}

// Drain claims every available pending block, copying payloads into the
// receive buffer. Returns true when the request is complete.
func (req *pairRequest) Drain() bool {
	port := req.port
	for s := req.pending.next(0); s >= 0; s = req.pending.next(s + 1) {
		if payload := port.TryClaim(s, req.tag); payload != nil {
			data := payload.Data
			if len(data) != req.recvCounts[s] {
				panic(fmt.Sprintf("mpi/sched: rank %d got %d elements from %d, want %d", port.Rank(), len(data), s, req.recvCounts[s]))
			}
			copy(req.recv[req.offsets[s]:req.offsets[s]+len(data)], data)
			port.Release(payload)
			req.pending.remove(s)
		}
	}
	return req.pending.n == 0
}

// Queued reports whether any pending source's block is in the mailbox.
func (req *pairRequest) Queued() bool {
	for s := req.pending.next(0); s >= 0; s = req.pending.next(s + 1) {
		if req.port.Queued(s, req.tag) {
			return true
		}
	}
	return false
}

// Missing summarizes the incomplete sources for diagnostics.
func (req *pairRequest) Missing() (seqs, from []int) {
	if req.pending.n == 0 {
		return nil, nil
	}
	return []int{req.tag}, req.pending.members(nil)
}

// ---- windowed pairwise -----------------------------------------------------

// winSend is one deferred peer send of a windowed collective. The data
// slice aliases the caller's send buffer, which the Ialltoallv contract
// keeps frozen until the request completes; the transport copies the
// payload when the send is released.
type winSend struct {
	dst  int
	data []complex128
}

// winRequest is pairwise with a bounded number of released-but-unreceived
// peer sends: distance i's send is released once (window + completed
// receives) covers it. Liveness holds by induction on the world's minimum
// completed-receive count: every rank has always released at least
// window + that minimum distances, so some gated receive is always
// satisfiable.
type winRequest struct {
	pairRequest
	deferred []winSend // all nonzero sends, in distance order
	released int
	recvInit int
	window   int
}

func postWindowed(port Port, send []complex128, sendCounts, soff []int, recv []complex128, recvCounts, offsets []int, window int) *winRequest {
	p, rank := port.Size(), port.Rank()
	tag := port.NextTags(1)
	req := &winRequest{pairRequest: *newPairRequest(port, tag, recv, recvCounts, offsets), window: window}
	req.recvInit = req.pending.n
	req.deferred = make([]winSend, 0, p-1)
	for i := 1; i < p; i++ {
		dst := (rank + i) % p
		if sendCounts[dst] > 0 {
			req.deferred = append(req.deferred, winSend{dst: dst, data: send[soff[dst] : soff[dst]+sendCounts[dst]]})
		}
	}
	copy(recv[offsets[rank]:offsets[rank]+sendCounts[rank]], send[soff[rank]:soff[rank]+sendCounts[rank]])
	req.release()
	return req
}

// release hands every eligible deferred send to the transport. Once all
// receives are in, the remaining sends are flushed unconditionally so the
// request can complete even under asymmetric count shapes.
func (r *winRequest) release() {
	completed := r.recvInit - r.pending.n
	allow := r.window + completed
	if r.pending.n == 0 {
		allow = len(r.deferred)
	}
	for r.released < len(r.deferred) && r.released < allow {
		s := r.deferred[r.released]
		r.port.Send(s.dst, r.tag, s.data)
		r.released++
	}
}

func (r *winRequest) Drain() bool {
	done := r.pairRequest.Drain()
	r.release()
	return done && r.released == len(r.deferred)
}
