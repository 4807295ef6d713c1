package sched

import (
	"fmt"

	"offt/internal/arena"
)

// Hierarchical protocol phases, one collective sequence number each.
const (
	hierDirect   = iota // intra-node peer blocks, sent raw
	hierGather          // member → leader: combined inter-node packet [(dest+i·len) payload]·n, count-prefixed
	hierExchange        // leader ↔ leader: combined per-node packet [(origin+i·dest), (len), payload]·n, count-prefixed
	hierScatter         // leader → member: combined packet [(origin+i·len) payload]·n, count-prefixed
	hierTags
)

// hierBlock is one inter-node block staged on a leader. data aliases the
// caller's frozen send buffer or a claimed packet the leader keeps in held.
type hierBlock struct {
	origin, dest int
	data         []complex128
}

// hierRequest runs the node-aware exchange: same-node blocks go directly
// (hierDirect); inter-node blocks ride member→leader→leader→member with
// combined packets, cutting fabric messages from p² to nodes². Leaders
// gate the exchange phase on all members' gather packets and the scatter
// phase on all peer leaders' exchange packets; every packet is sent even
// when empty so the phase machine never stalls.
//
// Unlike pairwise and windowed requests, a hierarchical request is not
// kept on a FreeList: every post allocates it, its index vectors and its
// pending sets. No benchmark workload runs this schedule.
type hierRequest struct {
	port       Port
	baseTag    int
	recv       []complex128
	recvCounts []int
	offsets    []int
	remaining  int // foreign blocks not yet placed into recv

	nodeSize int
	leader   int // first rank of this node

	directPending pendSet // same-node peers whose direct block is missing

	// Leader-only state.
	isLeader        bool
	stage           int           // 0 awaiting gathers, 1 awaiting exchanges, 2 all sends out
	gatherPending   pendSet       // members whose gather packet is missing
	exchangePending pendSet       // peer leaders whose packet is missing
	pool            []hierBlock   // staged blocks (outbound in stage 0, scatter in stage 1)
	held            []*arena.Slab // claimed packets pool aliases; released once the stage's sends are out

	// Member-only state.
	scatterDone bool
}

// postHier starts a node-aware exchange over nodes of ns ranks; Post only
// calls it for more than one node.
func postHier(port Port, ns int, send []complex128, sendCounts, soff []int, recv []complex128, recvCounts, offsets []int) *hierRequest {
	p, rank := port.Size(), port.Rank()
	nodes := (p + ns - 1) / ns
	node := rank / ns
	req := &hierRequest{
		port: port, baseTag: port.NextTags(hierTags),
		recv: recv, recvCounts: recvCounts, offsets: offsets,
		nodeSize: ns, leader: node * ns, isLeader: rank == node*ns,
		directPending: newPendSet(p),
	}
	lo, hi := node*ns, (node+1)*ns
	if hi > p {
		hi = p
	}
	for s := 0; s < p; s++ {
		if s == rank || req.recvCounts[s] == 0 {
			continue
		}
		req.remaining++
		if s >= lo && s < hi {
			req.directPending.add(s)
		}
	}
	// Direct intra-node blocks and the self copy.
	for q := lo; q < hi; q++ {
		if q != rank && sendCounts[q] > 0 {
			port.Send(q, req.baseTag+hierDirect, send[soff[q]:soff[q]+sendCounts[q]])
		}
	}
	copy(recv[offsets[rank]:offsets[rank]+sendCounts[rank]], send[soff[rank]:soff[rank]+sendCounts[rank]])
	if req.isLeader {
		req.gatherPending = newPendSet(p)
		for m := lo + 1; m < hi; m++ {
			req.gatherPending.add(m)
		}
		req.exchangePending = newPendSet(p)
		for n := 0; n < nodes; n++ {
			if n != node {
				req.exchangePending.add(n * ns)
			}
		}
		// The leader's own inter-node blocks join the pool directly.
		for d := 0; d < p; d++ {
			if (d < lo || d >= hi) && sendCounts[d] > 0 {
				req.pool = append(req.pool, hierBlock{origin: rank, dest: d, data: send[soff[d] : soff[d]+sendCounts[d]]})
			}
		}
		if req.gatherPending.n == 0 {
			req.sendExchange()
		}
	} else {
		// Members push their combined inter-node packet to the leader
		// immediately: [n, (dest+i·len, payload)·n].
		size, n := 1, 0
		for d := 0; d < p; d++ {
			if (d < lo || d >= hi) && sendCounts[d] > 0 {
				size += 1 + sendCounts[d]
				n++
			}
		}
		pkt := port.Scratch(size)
		pkt[0] = complex(float64(n), 0)
		pos := 1
		for d := 0; d < p; d++ {
			if (d < lo || d >= hi) && sendCounts[d] > 0 {
				pkt[pos] = complex(float64(d), float64(sendCounts[d]))
				pos++
				copy(pkt[pos:pos+sendCounts[d]], send[soff[d]:soff[d]+sendCounts[d]])
				pos += sendCounts[d]
			}
		}
		port.Send(req.leader, req.baseTag+hierGather, pkt)
	}
	return req
}

// nodeBounds returns the rank range [lo, hi) of this rank's node.
func (r *hierRequest) nodeBounds() (int, int) {
	p := r.port.Size()
	lo := r.leader
	hi := lo + r.nodeSize
	if hi > p {
		hi = p
	}
	return lo, hi
}

// releaseHeld returns the claimed packets the just-sent stage was staged
// from: every pool block has been copied into an outbound packet.
func (r *hierRequest) releaseHeld() {
	for _, payload := range r.held {
		r.port.Release(payload)
	}
	r.held = r.held[:0]
	r.pool = r.pool[:0]
}

// place copies one arrived foreign block into the receive buffer.
func (r *hierRequest) place(origin int, data []complex128) {
	if len(data) != r.recvCounts[origin] {
		panic(fmt.Sprintf("mpi/sched: hier: rank %d got %d elements from %d, want %d", r.port.Rank(), len(data), origin, r.recvCounts[origin]))
	}
	copy(r.recv[r.offsets[origin]:r.offsets[origin]+len(data)], data)
	r.remaining--
}

// sendExchange flushes the pooled inter-node blocks as one combined packet
// per peer node (always sent, even empty) and enters stage 1.
func (r *hierRequest) sendExchange() {
	port := r.port
	p := port.Size()
	ns := r.nodeSize
	nodes := (p + ns - 1) / ns
	myNode := r.leader / ns
	for n := 0; n < nodes; n++ {
		if n == myNode {
			continue
		}
		size, cnt := 1, 0
		for _, b := range r.pool {
			if b.dest/ns == n {
				size += 2 + len(b.data)
				cnt++
			}
		}
		pkt := port.Scratch(size)
		pkt[0] = complex(float64(cnt), 0)
		pos := 1
		for _, b := range r.pool {
			if b.dest/ns != n {
				continue
			}
			pkt[pos] = complex(float64(b.origin), float64(b.dest))
			pkt[pos+1] = complex(float64(len(b.data)), 0)
			pos += 2
			copy(pkt[pos:pos+len(b.data)], b.data)
			pos += len(b.data)
		}
		port.Send(n*ns, r.baseTag+hierExchange, pkt)
	}
	r.releaseHeld()
	r.stage = 1
}

// sendScatter forwards the blocks received for this node's members
// (always one packet per member, even empty) and enters stage 2.
func (r *hierRequest) sendScatter() {
	port := r.port
	lo, hi := r.nodeBounds()
	for m := lo + 1; m < hi; m++ {
		size, cnt := 1, 0
		for _, b := range r.pool {
			if b.dest == m {
				size += 1 + len(b.data)
				cnt++
			}
		}
		pkt := port.Scratch(size)
		pkt[0] = complex(float64(cnt), 0)
		pos := 1
		for _, b := range r.pool {
			if b.dest != m {
				continue
			}
			pkt[pos] = complex(float64(b.origin), float64(len(b.data)))
			pos++
			copy(pkt[pos:pos+len(b.data)], b.data)
			pos += len(b.data)
		}
		port.Send(m, r.baseTag+hierScatter, pkt)
	}
	r.releaseHeld()
	r.stage = 2
}

func (r *hierRequest) Drain() bool {
	port := r.port
	for q := r.directPending.next(0); q >= 0; q = r.directPending.next(q + 1) {
		if payload := port.TryClaim(q, r.baseTag+hierDirect); payload != nil {
			r.place(q, payload.Data)
			port.Release(payload)
			r.directPending.remove(q)
		}
	}
	if r.isLeader {
		if r.stage == 0 {
			for m := r.gatherPending.next(0); m >= 0; m = r.gatherPending.next(m + 1) {
				payload := port.TryClaim(m, r.baseTag+hierGather)
				if payload == nil {
					continue
				}
				data := payload.Data
				n := int(real(data[0]))
				pos := 1
				for i := 0; i < n; i++ {
					dest := int(real(data[pos]))
					ln := int(imag(data[pos]))
					pos++
					r.pool = append(r.pool, hierBlock{origin: m, dest: dest, data: data[pos : pos+ln]})
					pos += ln
				}
				r.held = append(r.held, payload)
				r.gatherPending.remove(m)
			}
			if r.gatherPending.n == 0 {
				r.sendExchange()
			}
		}
		if r.stage == 1 {
			for l := r.exchangePending.next(0); l >= 0; l = r.exchangePending.next(l + 1) {
				payload := port.TryClaim(l, r.baseTag+hierExchange)
				if payload == nil {
					continue
				}
				data := payload.Data
				n := int(real(data[0]))
				pos := 1
				for i := 0; i < n; i++ {
					origin := int(real(data[pos]))
					dest := int(imag(data[pos]))
					ln := int(real(data[pos+1]))
					pos += 2
					block := data[pos : pos+ln]
					pos += ln
					if dest == port.Rank() {
						r.place(origin, block)
					} else {
						r.pool = append(r.pool, hierBlock{origin: origin, dest: dest, data: block})
					}
				}
				r.held = append(r.held, payload)
				r.exchangePending.remove(l)
			}
			if r.exchangePending.n == 0 {
				r.sendScatter()
			}
		}
		done := r.stage == 2 && r.directPending.n == 0
		if done && r.remaining != 0 {
			panic(fmt.Sprintf("mpi/sched: hier: leader %d finished protocol with %d blocks missing", port.Rank(), r.remaining))
		}
		return done
	}
	if !r.scatterDone {
		if payload := port.TryClaim(r.leader, r.baseTag+hierScatter); payload != nil {
			data := payload.Data
			n := int(real(data[0]))
			pos := 1
			for i := 0; i < n; i++ {
				origin := int(real(data[pos]))
				ln := int(imag(data[pos]))
				pos++
				r.place(origin, data[pos:pos+ln])
				pos += ln
			}
			port.Release(payload)
			r.scatterDone = true
		}
	}
	done := r.scatterDone && r.directPending.n == 0
	if done && r.remaining != 0 {
		panic(fmt.Sprintf("mpi/sched: hier: rank %d finished protocol with %d blocks missing", port.Rank(), r.remaining))
	}
	return done
}

func (r *hierRequest) Queued() bool {
	port := r.port
	for q := r.directPending.next(0); q >= 0; q = r.directPending.next(q + 1) {
		if port.Queued(q, r.baseTag+hierDirect) {
			return true
		}
	}
	if r.isLeader {
		if r.stage == 0 {
			for m := r.gatherPending.next(0); m >= 0; m = r.gatherPending.next(m + 1) {
				if port.Queued(m, r.baseTag+hierGather) {
					return true
				}
			}
		}
		if r.stage == 1 {
			for l := r.exchangePending.next(0); l >= 0; l = r.exchangePending.next(l + 1) {
				if port.Queued(l, r.baseTag+hierExchange) {
					return true
				}
			}
		}
		return false
	}
	return !r.scatterDone && port.Queued(r.leader, r.baseTag+hierScatter)
}

func (r *hierRequest) Missing() (seqs, from []int) {
	if r.directPending.n > 0 {
		seqs = append(seqs, r.baseTag+hierDirect)
		from = r.directPending.members(from)
	}
	if r.isLeader {
		if r.stage == 0 && r.gatherPending.n > 0 {
			seqs = append(seqs, r.baseTag+hierGather)
			from = r.gatherPending.members(from)
		}
		if r.stage == 1 && r.exchangePending.n > 0 {
			seqs = append(seqs, r.baseTag+hierExchange)
			from = r.exchangePending.members(from)
		}
	} else if !r.scatterDone {
		seqs = append(seqs, r.baseTag+hierScatter)
		from = append(from, r.leader)
	}
	return seqs, from
}
