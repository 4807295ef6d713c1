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
// owning rank's goroutine. A Port that also has a FreeList() *FreeList
// method lends Post the rank's free list of completed pairwise and
// windowed requests, which the engine's Wait refills (see FreeList); on a
// Port without one, every post builds a fresh request.
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
// must stay frozen until the request completes. A pairwise or windowed
// request comes off the port's free list when it has one (see FreeList).
func Post(port Port, ex mpi.Exchange, send []complex128, sendCounts []int, recv []complex128, recvCounts []int) Request {
	p := port.Size()
	if len(sendCounts) != p || len(recvCounts) != p {
		panic(fmt.Sprintf("mpi/sched: counts length %d/%d, want %d", len(sendCounts), len(recvCounts), p))
	}
	window := p // pairwise: every send released at post
	if p > 1 {
		switch ex.Alg {
		case mpi.CommBruck:
			rc, offsets, soff := vectors(make([]int, 3*p), send, sendCounts, recv, recvCounts)
			return postBruck(port, send, sendCounts, soff, recv, rc, offsets)
		case mpi.CommHier:
			// One node: the hierarchy is pure direct exchange — identical to
			// pairwise (a consistent choice world-wide, since the topology is).
			if ns := nodeSize(port, ex); ns < p {
				rc, offsets, soff := vectors(make([]int, 3*p), send, sendCounts, recv, recvCounts)
				return postHier(port, ns, send, sendCounts, soff, recv, rc, offsets)
			}
		case mpi.CommWindowed:
			window = windowOf(ex)
		}
	}
	return postPairwise(port, send, sendCounts, recv, recvCounts, window)
}

// vectors lays a request's three per-rank vectors out on one backing
// slice of 3p ints: the receive counts, copied because callers may reuse
// their counts arrays for the next collective while this request is still
// in flight (the Ialltoallv counts-aliasing contract), and the receive and
// send offsets. It panics if either buffer is too small for its counts.
func vectors(ints []int, send []complex128, sendCounts []int, recv []complex128, recvCounts []int) (rc, offsets, soff []int) {
	p := len(recvCounts)
	rc, offsets, soff = ints[:p:p], ints[p:2*p:2*p], ints[2*p:3*p:3*p]
	copy(rc, recvCounts)
	off := 0
	for s := 0; s < p; s++ {
		offsets[s] = off
		off += rc[s]
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
	return rc, offsets, soff
}

// windowOf resolves the windowed schedule's in-flight cap.
func windowOf(ex mpi.Exchange) int {
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

// ---- pairwise and windowed ---------------------------------------------------

// pairRequest tracks a pending pairwise or windowed all-to-all: which
// source blocks are still outstanding, where to copy them, and the peer
// sends not yet handed to the transport. Windowed pairwise bounds the
// released-but-unreceived sends: distance i's send is released once
// (window + completed receives) covers it. Liveness holds by induction on
// the world's minimum completed-receive count: every rank has always
// released at least window + that minimum distances, so some gated
// receive is always satisfiable. Pairwise is the window that covers every
// peer, so all its sends go out at post, in round-robin distance order.
type pairRequest struct {
	port       Port
	tag        int
	recv       []complex128
	ints       []int // backing of recvCounts and offsets (and Post's send offsets)
	recvCounts []int
	offsets    []int
	pending    pendSet   // source ranks not yet copied in
	deferred   []winSend // all nonzero sends, in distance order
	released   int
	recvInit   int
	window     int
	freed      bool // on a FreeList: Waited for, reusable by the next Post
}

// winSend is one deferred peer send. The data slice aliases the caller's
// send buffer, which the Ialltoallv contract keeps frozen until the request
// completes; the transport copies the payload when the send is released.
type winSend struct {
	dst  int
	data []complex128
}

// postPairwise starts a pairwise (window ≥ p−1) or windowed collective on
// a request from the port's free list, or a fresh one when the list is
// empty. Zero-count blocks are skipped on both sides, so sub-grid
// collectives only touch their real peers.
func postPairwise(port Port, send []complex128, sendCounts []int, recv []complex128, recvCounts []int, window int) *pairRequest {
	p, rank := port.Size(), port.Rank()
	var req *pairRequest
	if l, ok := port.(interface{ FreeList() *FreeList }); ok {
		req = l.FreeList().take()
	}
	if req == nil {
		req = &pairRequest{pending: newPendSet(p), deferred: make([]winSend, 0, p-1)}
	}
	if cap(req.ints) < 3*p {
		req.ints = make([]int, 3*p)
	}
	rc, offsets, soff := vectors(req.ints, send, sendCounts, recv, recvCounts)
	req.port, req.tag, req.recv, req.recvCounts, req.offsets = port, port.NextTags(1), recv, rc, offsets
	for s := 0; s < p; s++ {
		if s != rank && rc[s] > 0 {
			req.pending.add(s)
		}
	}
	req.recvInit, req.window, req.freed = req.pending.n, window, false
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
func (req *pairRequest) release() {
	completed := req.recvInit - req.pending.n
	allow := req.window + completed
	if req.pending.n == 0 {
		allow = len(req.deferred)
	}
	for req.released < len(req.deferred) && req.released < allow {
		s := req.deferred[req.released]
		req.port.Send(s.dst, req.tag, s.data)
		req.released++
	}
}

// Drain claims every available pending block, copying payloads into the
// receive buffer, and releases the sends that became eligible. Returns
// true when the request is complete.
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
	req.release()
	return req.pending.n == 0 && req.released == len(req.deferred)
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

// ---- free list --------------------------------------------------------------

// FreeList is one rank's completed pairwise and windowed requests. MPI_Wait
// frees the requests it completes; an engine's Wait hands them to Free, and
// the rank's next posts take them back with their index vectors, pending
// set and deferred sends at high-water capacity, so a steady stream of
// collectives allocates nothing. Bruck and hierarchical requests are not
// kept: they allocate per post. Only the rank's own goroutine touches the
// list, so it has no lock.
type FreeList struct{ reqs []*pairRequest }

// Free puts every pairwise and windowed request of reqs, all complete, on
// the list; other requests and nil entries are skipped. A request freed
// twice panics: its handle was passed to Wait after an earlier Wait had
// already freed it.
func (l *FreeList) Free(reqs []mpi.Request) {
	for _, r := range reqs {
		req, ok := r.(*pairRequest)
		if !ok {
			continue
		}
		if req.freed {
			panic("mpi/sched: Wait on a request an earlier Wait already freed")
		}
		// Drop the caller's buffers, which a freed request must not keep
		// alive, and its sends: Test on the handle reports it complete
		// until a post reuses it.
		req.freed, req.recv, req.released = true, nil, 0
		clear(req.deferred)
		req.deferred = req.deferred[:0]
		l.reqs = append(l.reqs, req)
	}
}

// take pops the most recently freed request, or returns nil. Being
// complete, it has an empty pending set.
func (l *FreeList) take() *pairRequest {
	n := len(l.reqs)
	if n == 0 {
		return nil
	}
	req := l.reqs[n-1]
	l.reqs[n-1] = nil
	l.reqs = l.reqs[:n-1]
	return req
}
