package sched

import (
	"fmt"

	"offt/internal/arena"
)

// bruckRounds returns ⌈log2 p⌉, the round count of the Bruck schedule.
func bruckRounds(p int) int {
	r := 0
	for (1 << r) < p {
		r++
	}
	return r
}

// bruckBlock is one block in flight through the Bruck store-and-forward
// pipeline. data aliases either the caller's frozen send buffer (round 0)
// or a claimed mailbox payload this rank owns (and keeps in held until the
// request completes).
type bruckBlock struct {
	origin, dest int
	data         []complex128
}

// bruckRequest advances one rank through the ⌈log2 p⌉ Bruck rounds. A
// block destined for d and currently held by r has remaining distance
// (d−r) mod p; round k forwards every held block whose distance has bit k
// set to rank r+2^k, shrinking its distance by 2^k. Distances are < p, so
// all bits clear within ⌈log2 p⌉ rounds and every block lands at its
// destination. Each rank sends exactly one (possibly empty) combined
// packet per round under tag base+k, and entering round k+1 requires
// round k's inbound packet — the per-rank state machine Drain() runs.
//
// Unlike pairwise and windowed requests, a Bruck request is not kept on a
// FreeList: every post allocates it, its index vectors and its block
// lists. No benchmark workload runs this schedule.
type bruckRequest struct {
	port       Port
	baseTag    int
	rounds     int
	round      int // rounds fully processed; == rounds ⇒ complete
	recv       []complex128
	recvCounts []int
	offsets    []int
	remaining  int // foreign blocks not yet placed into recv
	hold       []bruckBlock
	held       []*arena.Slab // claimed packets that hold blocks alias; released on completion
}

func postBruck(port Port, send []complex128, sendCounts, soff []int, recv []complex128, recvCounts, offsets []int) *bruckRequest {
	p, rank := port.Size(), port.Rank()
	rounds := bruckRounds(p)
	req := &bruckRequest{
		port: port, baseTag: port.NextTags(rounds), rounds: rounds,
		recv: recv, recvCounts: recvCounts, offsets: offsets,
	}
	for i := 1; i < p; i++ {
		d := (rank + i) % p
		if sendCounts[d] > 0 {
			req.hold = append(req.hold, bruckBlock{origin: rank, dest: d, data: send[soff[d] : soff[d]+sendCounts[d]]})
		}
		if req.recvCounts[d] > 0 {
			req.remaining++
		}
	}
	copy(recv[offsets[rank]:offsets[rank]+sendCounts[rank]], send[soff[rank]:soff[rank]+sendCounts[rank]])
	req.sendRound(0)
	return req
}

// sendRound assembles and transmits round k's combined packet: held blocks
// whose remaining distance has bit k set, encoded as
// [n, (origin+i·dest, len)·n, payload·n]. The packet always goes out, even
// empty, so the receiver's round state machine never stalls.
func (r *bruckRequest) sendRound(k int) {
	port := r.port
	p, rank := port.Size(), port.Rank()
	size, n := 1, 0
	for _, b := range r.hold {
		if ((b.dest-rank+p)%p)&(1<<k) != 0 {
			size += 2 + len(b.data)
			n++
		}
	}
	pkt := port.Scratch(size)
	pkt[0] = complex(float64(n), 0)
	pos := 1
	keep := r.hold[:0]
	for _, b := range r.hold {
		if ((b.dest-rank+p)%p)&(1<<k) == 0 {
			keep = append(keep, b)
			continue
		}
		pkt[pos] = complex(float64(b.origin), float64(b.dest))
		pkt[pos+1] = complex(float64(len(b.data)), 0)
		pos += 2
		copy(pkt[pos:pos+len(b.data)], b.data)
		pos += len(b.data)
	}
	r.hold = keep
	port.Send((rank+(1<<k))%p, r.baseTag+k, pkt)
}

// processRound splits round k's inbound packet into blocks that arrived
// (distance 0: copy into recv) and blocks to keep forwarding. A packet
// that leaves nothing to forward is released at once; the others are
// released when the request completes, after the last round that could
// forward a slice of them has been assembled.
func (r *bruckRequest) processRound(payload *arena.Slab) {
	port := r.port
	p, rank := port.Size(), port.Rank()
	data := payload.Data
	forwarding := len(r.hold)
	n := int(real(data[0]))
	pos := 1
	for i := 0; i < n; i++ {
		origin := int(real(data[pos]))
		dest := int(imag(data[pos]))
		ln := int(real(data[pos+1]))
		pos += 2
		block := data[pos : pos+ln]
		pos += ln
		if dest == rank {
			if ln != r.recvCounts[origin] {
				panic(fmt.Sprintf("mpi/sched: bruck: rank %d got %d elements from %d, want %d", rank, ln, origin, r.recvCounts[origin]))
			}
			copy(r.recv[r.offsets[origin]:r.offsets[origin]+ln], block)
			r.remaining--
		} else {
			if (dest-rank+p)%p == 0 {
				panic(fmt.Sprintf("mpi/sched: bruck: rank %d holding misrouted block %d→%d", rank, origin, dest))
			}
			r.hold = append(r.hold, bruckBlock{origin: origin, dest: dest, data: block})
		}
	}
	if len(r.hold) == forwarding {
		port.Release(payload)
	} else {
		r.held = append(r.held, payload)
	}
}

func (r *bruckRequest) Drain() bool {
	port := r.port
	p := port.Size()
	for r.round < r.rounds {
		src := (port.Rank() - (1 << r.round) + p*2) % p
		payload := port.TryClaim(src, r.baseTag+r.round)
		if payload == nil {
			return false
		}
		r.processRound(payload)
		r.round++
		if r.round < r.rounds {
			r.sendRound(r.round)
		}
	}
	for _, payload := range r.held {
		port.Release(payload)
	}
	r.held = nil
	if r.remaining != 0 || len(r.hold) != 0 {
		panic(fmt.Sprintf("mpi/sched: bruck: rank %d finished rounds with %d blocks missing, %d undelivered", port.Rank(), r.remaining, len(r.hold)))
	}
	return true
}

func (r *bruckRequest) Queued() bool {
	if r.round >= r.rounds {
		return false
	}
	p := r.port.Size()
	src := (r.port.Rank() - (1 << r.round) + p*2) % p
	return r.port.Queued(src, r.baseTag+r.round)
}

func (r *bruckRequest) Missing() (seqs, from []int) {
	if r.round >= r.rounds {
		return nil, nil
	}
	p := r.port.Size()
	return []int{r.baseTag + r.round}, []int{(r.port.Rank() - (1 << r.round) + p*2) % p}
}
