// Package simnet simulates a cluster interconnect in virtual time (package
// vclock), reproducing the communication behaviour the paper's design and
// auto-tuning revolve around:
//
//   - Eager protocol for small messages: the transfer starts as soon as the
//     sender's NIC is free, independent of the receiver's MPI activity.
//   - Rendezvous protocol for messages above the eager threshold: the
//     ready-to-send (RTS) and clear-to-send (CTS) handshake steps advance
//     only while the owning rank is inside an MPI call (posting, Test, or
//     Wait) — the "manual progression" of §3.3. A rank that computes for a
//     long stretch without calling MPI_Test therefore stalls every inbound
//     and outbound rendezvous transfer, which is exactly why the paper
//     auto-tunes the Fy/Fp/Fu/Fx test frequencies.
//   - NIC injection and receiver drain serialization plus a fabric
//     contention factor that grows with the number of occupied nodes, so
//     the all-to-all becomes relatively more expensive at higher p (§5.2).
//
// All costs (per-call CPU overheads, latencies, per-byte rates) come from a
// machine.Machine model. The simulation is deterministic.
package simnet

import (
	"fmt"
	"math"
	"slices"

	"offt/internal/machine"
	"offt/internal/mpi/fault"
	"offt/internal/telemetry"
	"offt/internal/vclock"
)

const never = math.MaxInt64

// scheduler abstracts the two vclock contexts that can drive protocol
// transitions: a running process (*vclock.Proc) and an event callback
// (vclock.Waker). Both provide ScheduleEvent and Wake, and both are one
// pointer wide, so neither is boxed on the way in.
type scheduler interface {
	ScheduleEvent(t int64, ev vclock.Event)
	Wake(q *vclock.Proc, t int64)
}

// Fabric is the shared interconnect state for one simulated job.
type Fabric struct {
	Mach  machine.Machine
	P     int
	nodes int
	eps   []*Endpoint
	// nicFree[r] is when rank r's NIC finishes its current injection;
	// rxFree[r] is when rank r's inbound pipe finishes draining.
	nicFree []int64
	rxFree  []int64

	// plan, when set, degrades the fabric in virtual time: NIC stall
	// windows displace injection starts and slow-NIC / link factors scale
	// the per-byte rate. Per-message faults (drop/corrupt/duplicate) are a
	// payload-transport concern and stay with the mem engine.
	plan *fault.Plan

	// reqs is the chunk new requests are cut from. A full chunk is left to
	// the requests that point into it and a fresh one started, so requests
	// cost one allocation per reqChunk and all die with the fabric.
	reqs []Req

	// Stats, aggregated over the whole job.
	Stats Stats
}

// Stats counts fabric-level activity for assertions and reporting.
type Stats struct {
	EagerMsgs      int64
	RendezvousMsgs int64
	BytesMoved     int64
	TestCalls      int64

	// Fault-injection activity (see SetFaults).
	StallNsInjected   int64 // total injection-start displacement from NIC stalls
	DegradedTransfers int64 // injections whose rate was scaled by NIC/link factors
}

// Publish copies the snapshot into a telemetry registry under "simnet.*".
// Stats is a point-in-time value (the fabric mutates its own copy as the
// simulation runs), so the bridge is a plain gauge write, not a live Func.
// Safe on a nil registry.
func (s Stats) Publish(r *telemetry.Registry) {
	if r == nil {
		return
	}
	r.Gauge("simnet.eager_msgs").Set(float64(s.EagerMsgs))
	r.Gauge("simnet.rendezvous_msgs").Set(float64(s.RendezvousMsgs))
	r.Gauge("simnet.bytes_moved").Set(float64(s.BytesMoved))
	r.Gauge("simnet.test_calls").Set(float64(s.TestCalls))
	r.Gauge("simnet.stall_ns_injected").Set(float64(s.StallNsInjected))
	r.Gauge("simnet.degraded_transfers").Set(float64(s.DegradedTransfers))
}

// NewFabric creates the interconnect for p ranks on machine m.
func NewFabric(m machine.Machine, p int) *Fabric {
	if p < 1 {
		panic("simnet: need at least one rank")
	}
	return &Fabric{
		Mach:    m,
		P:       p,
		nodes:   m.Nodes(p),
		eps:     make([]*Endpoint, p),
		nicFree: make([]int64, p),
		rxFree:  make([]int64, p),
	}
}

// Endpoint binds a rank to its vclock process. Must be called exactly once
// per rank, from that rank's process body, before any communication.
func (f *Fabric) Endpoint(rank int, proc *vclock.Proc) *Endpoint {
	if rank < 0 || rank >= f.P {
		panic(fmt.Sprintf("simnet: rank %d out of range", rank))
	}
	if f.eps[rank] != nil {
		panic(fmt.Sprintf("simnet: endpoint for rank %d already exists", rank))
	}
	ep := &Endpoint{f: f, rank: rank, proc: proc, unmatched: make([]*Req, f.P)}
	f.eps[rank] = ep
	return ep
}

// reqChunk is how many requests one allocation holds: large enough that
// requests stop counting as objects, small enough (about 24 KiB) that a
// two-message test world does not notice.
const reqChunk = 256

// newReq returns a zeroed request from the fabric's chunked storage.
func (f *Fabric) newReq() *Req {
	if len(f.reqs) == cap(f.reqs) {
		f.reqs = make([]Req, 0, reqChunk)
	}
	f.reqs = f.reqs[:len(f.reqs)+1]
	return &f.reqs[len(f.reqs)-1]
}

// Req is one point-to-point operation (half of a message). It is also the
// record of everything the protocol still has to do for it: the vclock
// event in flight for it (a request never has two at once), its place in a
// queue of progression steps, and its link in the receiver's queue of
// unmatched requests — so a message costs its two requests and nothing else.
type Req struct {
	ep          *Endpoint
	group       *Group
	peer, tag   int
	bytes       int
	completedAt int64 // virtual completion time; never == not yet known
	isSend      bool
	completed   bool
	waited      bool // currently counted by an active WaitAll

	stage stage // what this request's pending event or queued step does
	next  *Req  // link in an Endpoint.unmatched queue
	// A send that reached the receiver before its receive was posted waits
	// there with its arrival time; a rendezvous send, once matched, carries
	// the receive and the bytes injected so far through the handshake and
	// the chunk pipeline.
	arrivedAt int64
	match     *Req
	off       int
}

// stage names the next protocol transition of a request. Those marked
// "event" happen at a scheduled virtual time (Req.Fire); those marked
// "step" are progression steps gated on a rank being inside an MPI call
// (Req.step).
type stage uint8

const (
	eagerArrives  stage = iota // event: eager data reaches the receiver
	rtsArrives                 // event: a rendezvous RTS reaches the receiver
	sendCTS                    // step, at the receiver: answer the RTS
	ctsArrives                 // event: the CTS reaches the sender
	injectChunk                // step: inject the next chunk; the first at the sender, the rest at the receiver
	chunkInjected              // event: a chunk has left the NIC and more remain
	finishes                   // event: the request completes (a send at injection end, a receive at arrival)
)

// Done reports whether the request has completed by time now.
func (r *Req) Done(now int64) bool { return r.completedAt <= now }

// Group counts the incomplete requests of one collective operation, giving
// O(1) completion checks however many point-to-point halves it contains.
type Group struct {
	pending int
}

// Pending returns the number of incomplete requests in the group.
func (g *Group) Pending() int { return g.pending }

// Done reports whether every request in the group has completed.
func (g *Group) Done() bool { return g.pending == 0 }

// CompletedAt returns the completion time (math.MaxInt64 if unknown).
func (r *Req) CompletedAt() int64 { return r.completedAt }

// action is a progression step gated on the owning rank being inside MPI:
// send.step, for the rendezvous send it belongs to.
type action struct {
	enabledAt int64
	send      *Req
}

// Endpoint is one rank's view of the fabric.
type Endpoint struct {
	f    *Fabric
	rank int
	proc *vclock.Proc

	inWait        bool
	parked        bool
	waitRemaining int
	actions       []action
	// open tracks incomplete group-attached requests so WaitGroups can
	// flag them; completed entries are pruned lazily.
	open []*Req

	// unmatched[peer] queues, oldest first and linked through Req.next,
	// what has shown up for that peer on one side only: receives posted
	// before anything arrived, and sends (eager data, a rendezvous RTS)
	// that arrived before a receive was posted. Matching is immediate, so
	// one tag never has both kinds queued, and a queue is as long as the
	// collectives in flight between the pair — a handful.
	unmatched []*Req
}

// Rank returns the endpoint's rank.
func (ep *Endpoint) Rank() int { return ep.rank }

// Proc returns the endpoint's vclock process.
func (ep *Endpoint) Proc() *vclock.Proc { return ep.proc }

// Now returns the rank's current virtual time.
func (ep *Endpoint) Now() int64 { return ep.proc.Now() }

// SetFaults attaches a fault plan whose per-rank stall windows and
// NIC/link degradation factors are applied in virtual time. Must be called
// before Run; a nil or inactive plan leaves the fabric untouched.
func (f *Fabric) SetFaults(plan *fault.Plan) {
	if plan.Active() {
		f.plan = plan
	}
}

// rate returns the effective ns/byte from ep's rank to dst.
func (f *Fabric) rate(src, dst int) float64 {
	return f.Mach.EffNsPerByte(src, dst, f.nodes)
}

// faultTxStart displaces an injection start past any stall window covering
// src's NIC, counting the displacement.
func (f *Fabric) faultTxStart(src int, txStart int64) int64 {
	if f.plan == nil {
		return txStart
	}
	if end := f.plan.StallEnd(src, txStart); end > txStart {
		f.Stats.StallNsInjected += end - txStart
		txStart = end
	}
	return txStart
}

// faultRate returns the effective ns/byte for an injection starting at
// time `at`, with slow-NIC and link-degradation factors applied.
func (f *Fabric) faultRate(src, dst int, at int64) float64 {
	r := f.rate(src, dst)
	if f.plan == nil {
		return r
	}
	if m := f.plan.NICFactor(src) * f.plan.LinkFactor(src, dst, at); m != 1 {
		f.Stats.DegradedTransfers++
		r *= m
	}
	return r
}

// Isend posts a non-blocking send of `bytes` bytes to rank dst with the
// given tag. It charges the posting CPU cost and runs the progress engine
// (posting is an MPI call).
func (ep *Endpoint) Isend(dst, tag, bytes int) *Req {
	return ep.IsendGrp(dst, tag, bytes, nil)
}

// IsendGrp is Isend with the request attached to a completion group.
func (ep *Endpoint) IsendGrp(dst, tag, bytes int, grp *Group) *Req {
	if dst < 0 || dst >= ep.f.P {
		panic(fmt.Sprintf("simnet: Isend to invalid rank %d", dst))
	}
	ep.proc.Advance(int64(ep.f.Mach.Cmp.SendPostNs))
	now := ep.proc.Now()
	f := ep.f
	req := f.newReq()
	*req = Req{ep: ep, isSend: true, peer: dst, tag: tag, bytes: bytes, completedAt: never, group: grp}
	if grp != nil {
		grp.pending++
	}
	f.Stats.BytesMoved += int64(bytes)
	if bytes <= f.Mach.Net.EagerThreshold {
		// Eager: buffered send completes locally right away; the transfer
		// is scheduled immediately regardless of the receiver's state.
		f.Stats.EagerMsgs++
		ep.markComplete(req, now)
		req.stage = eagerArrives
		_, arrival := f.transfer(now, ep.rank, dst, bytes)
		ep.proc.ScheduleEvent(arrival, req)
	} else {
		// Rendezvous: RTS control message (latency only).
		f.Stats.RendezvousMsgs++
		req.stage = rtsArrives
		ep.proc.ScheduleEvent(now+f.Mach.Latency(ep.rank, dst), req)
	}
	if grp != nil && !req.completed {
		ep.open = append(ep.open, req)
	}
	ep.progress(ep.proc.Now(), ep.proc)
	return req
}

// transfer books NIC injection and receiver drain for a data transfer
// starting no earlier than `from`, and returns when the injection ends and
// when the data has arrived. Each message pays the per-message setup
// occupancy on both sides in addition to its byte serialization, so
// tiny-message floods are rate-limited.
func (f *Fabric) transfer(from int64, src, dst, bytes int) (txEnd, arrival int64) {
	txStart := f.faultTxStart(src, max(from, f.nicFree[src]))
	dur := f.Mach.Net.MsgSetupNs + int64(float64(bytes)*f.faultRate(src, dst, txStart))
	txEnd = txStart + dur
	f.nicFree[src] = txEnd
	arrival = max(txStart+f.Mach.Latency(src, dst), f.rxFree[dst]) + dur
	f.rxFree[dst] = arrival
	return txEnd, arrival
}

// Irecv posts a non-blocking receive matching (src, tag). Charges the
// posting CPU cost and runs the progress engine.
func (ep *Endpoint) Irecv(src, tag, bytes int) *Req {
	return ep.IrecvGrp(src, tag, bytes, nil)
}

// IrecvGrp is Irecv with the request attached to a completion group.
func (ep *Endpoint) IrecvGrp(src, tag, bytes int, grp *Group) *Req {
	if src < 0 || src >= ep.f.P {
		panic(fmt.Sprintf("simnet: Irecv from invalid rank %d", src))
	}
	ep.proc.Advance(int64(ep.f.Mach.Cmp.RecvPostNs))
	now := ep.proc.Now()
	req := ep.f.newReq()
	*req = Req{ep: ep, peer: src, tag: tag, bytes: bytes, completedAt: never, group: grp}
	if grp != nil {
		grp.pending++
	}
	if send := ep.take(src, tag, true); send == nil {
		ep.put(src, req)
	} else if send.stage == rtsArrives {
		// RTS already here: the CTS step becomes enabled now. Since
		// posting is an MPI call, progress below fires it immediately.
		send.match, send.stage = req, sendCTS
		ep.actions = append(ep.actions, action{enabledAt: now, send: send})
	} else {
		ep.markComplete(req, max(send.arrivedAt, now))
	}
	if grp != nil && !req.completed {
		ep.open = append(ep.open, req)
	}
	ep.progress(ep.proc.Now(), ep.proc)
	return req
}

// put queues r as the newest unmatched request for peer.
func (ep *Endpoint) put(peer int, r *Req) {
	link := &ep.unmatched[peer]
	for *link != nil {
		link = &(*link).next
	}
	*link = r
}

// take unlinks and returns the oldest unmatched request for (peer, tag) if
// it is of the wanted kind — a send that arrived, or a posted receive — and
// nil otherwise.
func (ep *Endpoint) take(peer, tag int, send bool) *Req {
	for link := &ep.unmatched[peer]; *link != nil; link = &(*link).next {
		if r := *link; r.tag == tag {
			if r.isSend != send {
				return nil
			}
			*link, r.next = r.next, nil
			return r
		}
	}
	return nil
}

// Fire runs the request's pending event (vclock.Event).
func (r *Req) Fire(now int64, w vclock.Waker) {
	switch r.stage {
	case eagerArrives, rtsArrives:
		r.ep.f.eps[r.peer].deliver(r, now, w)
	case ctsArrives:
		// The data-start step is again progress-gated, at the sender.
		r.stage = injectChunk
		r.ep.enableFromEvent(now, r, w)
	case chunkInjected:
		// The next chunk became eligible when this one was injected, but
		// continues only at the RECEIVER's next MPI call: after the
		// sender-gated start, the pipeline is receiver-driven (an
		// RDMA-get-style pull), so a receiving rank that computes without
		// MPI_Test stalls its inbound transfers mid-flight — which is why
		// the paper tunes Fu and Fx, the Test frequencies of the
		// receive-side Unpack and FFTx phases.
		r.stage = injectChunk
		r.match.ep.enableFromEvent(now, r, w)
	case finishes:
		r.ep.complete(r, now, w)
	}
}

// deliver handles an inbound protocol message (eager data or RTS) at the
// receiver, from event context.
func (ep *Endpoint) deliver(send *Req, t int64, sc scheduler) {
	recv := ep.take(send.ep.rank, send.tag, false)
	if recv == nil {
		send.arrivedAt = t
		ep.put(send.ep.rank, send)
	} else if send.stage == rtsArrives {
		send.match, send.stage = recv, sendCTS
		ep.enableFromEvent(t, send, sc)
	} else {
		ep.complete(recv, t, sc)
	}
}

// step runs the progression step a matched rendezvous send is waiting on.
func (r *Req) step(now int64, sc scheduler) {
	f := r.ep.f
	src, dst := r.ep.rank, r.match.ep.rank
	if r.stage == sendCTS {
		// The receiver sends the CTS: it fires only when that rank is
		// inside an MPI call, and reaches the sender a latency later.
		r.stage = ctsArrives
		sc.ScheduleEvent(now+f.Mach.Latency(dst, src), r)
		return
	}
	// injectChunk. The transfer is chunked: the start is gated on the
	// sender's MPI activity and every subsequent chunk on the receiver's,
	// modelling the continuous two-sided progression real MPI rendezvous
	// pipelines need — whichever rank computes without calling MPI_Test
	// stalls its transfers, not just the handshake.
	bytes := r.bytes - r.off
	if chunk := f.Mach.Net.RendezvousChunkBytes; chunk > 0 && bytes > chunk {
		bytes = chunk
	}
	txEnd, arrival := f.transfer(now, src, dst, bytes)
	r.off += bytes
	if r.off < r.bytes {
		r.stage = chunkInjected
		sc.ScheduleEvent(txEnd, r)
		return
	}
	// Last chunk: local completion at injection end, remote at arrival.
	r.stage, r.match.stage = finishes, finishes
	sc.ScheduleEvent(txEnd, r)
	sc.ScheduleEvent(arrival, r.match)
}

// enableFromEvent records a progression step from event context; if the
// rank is blocked in Wait (which continuously progresses, like MPI_Wait's
// internal loop) the step fires immediately, otherwise it waits for the
// rank's next MPI call.
func (ep *Endpoint) enableFromEvent(t int64, send *Req, sc scheduler) {
	if ep.inWait {
		send.step(t, sc)
		return
	}
	ep.actions = append(ep.actions, action{enabledAt: t, send: send})
}

// progress fires every enabled progression step. now is the rank's current
// time: steps enabled earlier fire now — the gap is the manual-progression
// delay the paper's Test-frequency parameters exist to shrink.
func (ep *Endpoint) progress(now int64, sc scheduler) {
	n := 0
	for n < len(ep.actions) && ep.actions[n].enabledAt <= now {
		ep.actions[n].send.step(now, sc)
		n++
	}
	// Close the gap in place: slicing the fired steps off the front would
	// walk the backing array forward and reallocate it for ever.
	ep.actions = ep.actions[:copy(ep.actions, ep.actions[n:])]
}

// markComplete records a request's completion without any wakeup (used on
// paths where the owning rank is the one running).
func (ep *Endpoint) markComplete(r *Req, t int64) {
	if r.completed {
		return
	}
	r.completed = true
	r.completedAt = t
	if r.group != nil {
		r.group.pending--
	}
	if r.waited {
		r.waited = false
		ep.waitRemaining--
	}
}

// complete marks a request finished at time t and wakes the owning rank if
// it is parked in a Wait that includes this request.
func (ep *Endpoint) complete(r *Req, t int64, sc scheduler) {
	if r.completed {
		return
	}
	ep.markComplete(r, t)
	if ep.parked && ep.waitRemaining == 0 {
		ep.parked = false
		sc.Wake(ep.proc, t)
	}
}

// Test models one MPI_Test call over the given requests: it charges the
// call cost, runs the progress engine, and reports whether all requests
// have completed. nil requests are ignored.
func (ep *Endpoint) Test(reqs ...*Req) bool {
	active := 0
	for _, r := range reqs {
		if r != nil && !r.completed {
			active++
		}
	}
	ep.TestN(active)
	for _, r := range reqs {
		if r != nil && !r.completed {
			return false
		}
	}
	return true
}

// TestN charges one MPI_Test call inspecting `active` incomplete requests
// and runs the progress engine. Callers tracking completion through Groups
// use this O(1) path instead of Test's request scan.
func (ep *Endpoint) TestN(active int) {
	cmp := ep.f.Mach.Cmp
	ep.proc.Advance(int64(cmp.TestCallNs + float64(active)*cmp.TestPerReqNs))
	ep.f.Stats.TestCalls++
	ep.progress(ep.proc.Now(), ep.proc)
}

// WaitAll blocks until every request has completed, continuously running
// the progress engine (like MPI_Waitall). It returns the rank's time when
// the last request finished.
func (ep *Endpoint) WaitAll(reqs ...*Req) int64 {
	cmp := ep.f.Mach.Cmp
	ep.proc.Advance(int64(cmp.TestCallNs))
	now := ep.proc.Now()
	ep.progress(now, ep.proc)
	ep.waitRemaining = 0
	for _, r := range reqs {
		if r != nil && !r.completed {
			r.waited = true
			ep.waitRemaining++
		}
	}
	for ep.waitRemaining > 0 {
		ep.inWait = true
		ep.parked = true
		ep.proc.Park()
		ep.parked = false
		ep.inWait = false
		ep.progress(ep.proc.Now(), ep.proc)
	}
	return ep.proc.Now()
}

// LocalCopy charges the memcpy cost for a rank's self-block in an
// all-to-all.
func (ep *Endpoint) LocalCopy(bytes int) {
	ep.proc.Advance(int64(float64(bytes) * ep.f.Mach.Cmp.LocalCopyNsPerByte))
}

// WaitGroups blocks until every group's requests have completed,
// continuously running the progress engine (like MPI_Waitall over the
// groups' requests), with O(1) completion checks.
func (ep *Endpoint) WaitGroups(groups ...*Group) int64 {
	cmp := ep.f.Mach.Cmp
	ep.proc.Advance(int64(cmp.TestCallNs))
	ep.progress(ep.proc.Now(), ep.proc)
	for {
		ep.waitRemaining = 0
		for _, g := range groups {
			ep.waitRemaining += g.pending
		}
		if ep.waitRemaining == 0 {
			return ep.proc.Now()
		}
		// Count every pending request of the waited groups; completions
		// decrement waitRemaining via markComplete (the waited flag is not
		// needed here because group membership already identifies them —
		// but markComplete only decrements flagged requests, so flag them).
		ep.flagGroupReqs(groups)
		ep.inWait = true
		ep.parked = true
		ep.proc.Park()
		ep.parked = false
		ep.inWait = false
		ep.progress(ep.proc.Now(), ep.proc)
	}
}

// flagGroupReqs marks the incomplete requests of the groups as waited so
// their completions decrement waitRemaining. Requests are tracked on the
// endpoint's open request list.
func (ep *Endpoint) flagGroupReqs(groups []*Group) {
	kept := ep.open[:0]
	for _, r := range ep.open {
		if r.completed {
			continue
		}
		kept = append(kept, r)
		if slices.Contains(groups, r.group) {
			r.waited = true
		}
	}
	ep.open = kept
}
