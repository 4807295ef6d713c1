package sched

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"offt/internal/arena"
	"offt/internal/mpi"
)

// fakeNet is a deterministic in-memory stand-in for an engine: p fakePorts
// driven from one goroutine. Send copies the block into a payload of its
// own and parks it in flight; step delivers whatever is due, in an order
// the seeded generator picks, so messages overtake each other (reordered),
// sit out a few steps (delayed) and can arrive a second time under the
// same (src, tag) (duplicated). It also polices the payload contract:
// every claimed handle must be released exactly once, and a released
// payload is overwritten with NaN so a later read of it shows up in the
// receive buffers.
type fakeNet struct {
	t        *testing.T
	rng      *rand.Rand
	maxDelay int     // a message is due after 0..maxDelay steps
	dupProb  float64 // chance a message is delivered twice
	nodeSize int
	now      int
	inflight []flight
	ports    []*fakePort
	released map[*arena.Slab]int // claimed handle → times released
}

type flight struct {
	due           int
	dst, src, tag int
	payload       *arena.Slab
}

type boxKey struct{ src, tag int }

type fakePort struct {
	net     *fakeNet
	rank    int
	seq     int
	box     map[boxKey][]*arena.Slab
	scratch []complex128
}

func newFakeNet(t *testing.T, p int, seed int64, maxDelay int, dupProb float64, nodeSize int) *fakeNet {
	n := &fakeNet{t: t, rng: rand.New(rand.NewSource(seed)), maxDelay: maxDelay, dupProb: dupProb,
		nodeSize: nodeSize, released: map[*arena.Slab]int{}}
	for r := 0; r < p; r++ {
		n.ports = append(n.ports, &fakePort{net: n, rank: r, box: map[boxKey][]*arena.Slab{}})
	}
	return n
}

func (p *fakePort) Rank() int     { return p.rank }
func (p *fakePort) Size() int     { return len(p.net.ports) }
func (p *fakePort) NodeSize() int { return p.net.nodeSize }

func (p *fakePort) NextTags(n int) int {
	t := p.seq
	p.seq += n
	return t
}

func (p *fakePort) Send(dst, tag int, data []complex128) {
	n := p.net
	if dst == p.rank {
		n.t.Fatalf("rank %d sent to itself (tag %d)", p.rank, tag)
	}
	copies := 1
	if n.rng.Float64() < n.dupProb {
		copies = 2
	}
	for i := 0; i < copies; i++ {
		payload := &arena.Slab{Data: append([]complex128{}, data...)}
		due := n.now
		if n.maxDelay > 0 {
			due += n.rng.Intn(n.maxDelay + 1)
		}
		n.inflight = append(n.inflight, flight{due: due, dst: dst, src: p.rank, tag: tag, payload: payload})
	}
}

func (p *fakePort) TryClaim(src, tag int) *arena.Slab {
	k := boxKey{src, tag}
	q := p.box[k]
	if len(q) == 0 {
		return nil
	}
	if len(q) == 1 {
		delete(p.box, k)
	} else {
		p.box[k] = q[1:]
	}
	p.net.released[q[0]] = 0
	return q[0]
}

func (p *fakePort) Release(payload *arena.Slab) {
	n := p.net
	count, claimed := n.released[payload]
	if !claimed {
		n.t.Fatalf("rank %d released a payload it never claimed", p.rank)
	}
	if count != 0 {
		n.t.Fatalf("rank %d released a payload twice", p.rank)
	}
	n.released[payload] = 1
	for i := range payload.Data {
		payload.Data[i] = complex(math.NaN(), math.NaN())
	}
}

func (p *fakePort) Queued(src, tag int) bool { return len(p.box[boxKey{src, tag}]) > 0 }

func (p *fakePort) Scratch(n int) []complex128 {
	if cap(p.scratch) < n {
		p.scratch = make([]complex128, n)
	}
	return p.scratch[:n]
}

// step advances the clock and delivers every due message in random order.
func (n *fakeNet) step() {
	n.now++
	n.rng.Shuffle(len(n.inflight), func(i, j int) { n.inflight[i], n.inflight[j] = n.inflight[j], n.inflight[i] })
	keep := n.inflight[:0]
	for _, f := range n.inflight {
		if f.due > n.now {
			keep = append(keep, f)
			continue
		}
		k := boxKey{f.src, f.tag}
		n.ports[f.dst].box[k] = append(n.ports[f.dst].box[k], f.payload)
	}
	n.inflight = keep
}

// checkPayloads asserts the ownership contract once every request is
// complete: each claimed payload was released exactly once, and nothing
// is left unclaimed but the second copies of duplicated messages.
func (n *fakeNet) checkPayloads(dups bool) {
	n.t.Helper()
	for _, count := range n.released {
		if count != 1 {
			n.t.Fatalf("a claimed payload was released %d times, want 1", count)
		}
	}
	for _, p := range n.ports {
		if len(p.box) > 0 && !dups {
			n.t.Fatalf("rank %d: %d mailbox keys left unclaimed", p.rank, len(p.box))
		}
	}
}

// elem is the value of element k of the block src sends dst in collective c.
func elem(c, src, dst, k int) complex128 {
	return complex(float64(c*1_000_000+src*1000+dst), float64(k)+0.5)
}

// raggedCounts draws a p×p count matrix with zero blocks, silent ranks
// (a zero row) and deaf ranks (a zero column) mixed in.
func raggedCounts(rng *rand.Rand, p, maxN int) [][]int {
	counts := make([][]int, p)
	silent, deaf := -1, -1
	if p > 2 {
		silent, deaf = rng.Intn(p), rng.Intn(p)
	}
	for s := range counts {
		counts[s] = make([]int, p)
		for d := range counts[s] {
			if s == silent || d == deaf || rng.Intn(4) == 0 {
				continue
			}
			counts[s][d] = 1 + rng.Intn(maxN)
		}
	}
	return counts
}

type collective struct {
	send, recv [][]complex128 // by rank
	sendCounts [][]int
	recvCounts [][]int
	reqs       []Request
}

// post starts collective c on every rank of n, in random rank order.
func post(n *fakeNet, ex mpi.Exchange, c int, counts [][]int) *collective {
	p := len(n.ports)
	col := &collective{
		send: make([][]complex128, p), recv: make([][]complex128, p),
		sendCounts: make([][]int, p), recvCounts: make([][]int, p), reqs: make([]Request, p),
	}
	for r := 0; r < p; r++ {
		col.sendCounts[r] = append([]int(nil), counts[r]...)
		col.recvCounts[r] = make([]int, p)
		for s := 0; s < p; s++ {
			col.recvCounts[r][s] = counts[s][r]
		}
		for d := 0; d < p; d++ {
			for k := 0; k < counts[r][d]; k++ {
				col.send[r] = append(col.send[r], elem(c, r, d, k))
			}
		}
		total := 0
		for _, v := range col.recvCounts[r] {
			total += v
		}
		col.recv[r] = make([]complex128, total)
	}
	for _, r := range n.rng.Perm(p) {
		col.reqs[r] = Post(n.ports[r], ex, col.send[r], col.sendCounts[r], col.recv[r], col.recvCounts[r])
		// The counts-aliasing contract: the caller may scribble over its
		// counts slices as soon as Post returns.
		for i := range col.sendCounts[r] {
			col.sendCounts[r][i] = -1
			col.recvCounts[r][i] = -1
		}
	}
	return col
}

// run drains every request of every collective until all complete,
// stepping the network between sweeps.
func run(n *fakeNet, cols ...*collective) {
	n.t.Helper()
	p := len(n.ports)
	for sweep := 0; ; sweep++ {
		if sweep > 10_000 {
			for _, col := range cols {
				for r, req := range col.reqs {
					if seqs, from := req.Missing(); len(seqs) > 0 {
						n.t.Logf("rank %d stuck on seqs %v from %v", r, seqs, from)
					}
				}
			}
			n.t.Fatal("collectives did not complete")
		}
		done := true
		for _, r := range n.rng.Perm(p) {
			for _, col := range cols {
				if !col.reqs[r].Drain() {
					done = false
				}
			}
		}
		if done {
			break
		}
		n.step()
	}
	for _, col := range cols {
		for r, req := range col.reqs {
			if !req.Drain() {
				n.t.Fatalf("rank %d: a completed request reports incomplete on the next Drain", r)
			}
			if req.Queued() {
				n.t.Fatalf("rank %d: a completed request still reports queued work", r)
			}
			if seqs, from := req.Missing(); len(seqs) != 0 || len(from) != 0 {
				n.t.Fatalf("rank %d: a completed request reports missing %v from %v", r, seqs, from)
			}
		}
	}
}

// sameBits fails unless got and want agree bit for bit (NaN included).
func sameBits(t *testing.T, what string, got, want []complex128) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			t.Fatalf("%s: element %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

func testExchanges() []mpi.Exchange {
	return []mpi.Exchange{
		{Alg: mpi.CommPairwise},
		{Alg: mpi.CommWindowed, Window: 1},
		{Alg: mpi.CommWindowed, Window: 3},
		{Alg: mpi.CommBruck},
		{Alg: mpi.CommHier, NodeSize: 2},
		{Alg: mpi.CommHier, NodeSize: 3},
		{Alg: mpi.CommHier}, // node size from the port
	}
}

// TestSchedulesUnderChaoticDelivery is the property suite: for random
// world sizes and ragged count matrices, every schedule — two collectives
// in flight at once, as the overlap pipeline keeps them — must fill the
// receive buffers bit-identically to pairwise on an orderly network, under
// reordered, delayed and duplicated delivery, leave the send buffers
// untouched, and release every payload it claims exactly once without
// reading it afterwards.
func TestSchedulesUnderChaoticDelivery(t *testing.T) {
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 67}
	for _, ex := range testExchanges() {
		ex := ex
		t.Run(fmt.Sprintf("%s-w%d-n%d", ex.Alg, ex.Window, ex.NodeSize), func(t *testing.T) {
			for trial := 0; trial < 60; trial++ {
				seed := int64(1000*trial + 7)
				rng := rand.New(rand.NewSource(seed))
				p := sizes[rng.Intn(len(sizes))]
				maxN := 9
				if p > 16 {
					maxN = 2
				}
				counts := [][][]int{raggedCounts(rng, p, maxN), raggedCounts(rng, p, maxN)}

				// Reference: pairwise, every message delivered in order at
				// the next step, no duplicates.
				ref := newFakeNet(t, p, seed, 0, 0, 1)
				want0 := post(ref, mpi.Exchange{}, 0, counts[0])
				want1 := post(ref, mpi.Exchange{}, 1, counts[1])
				run(ref, want0, want1)
				ref.checkPayloads(false)

				net := newFakeNet(t, p, seed+1, rng.Intn(6), 0.3*float64(rng.Intn(2)), 1+rng.Intn(4))
				got0 := post(net, ex, 0, counts[0])
				got1 := post(net, ex, 1, counts[1])
				run(net, got0, got1)
				net.checkPayloads(net.dupProb > 0)

				for c, pair := range [][2]*collective{{got0, want0}, {got1, want1}} {
					got, want := pair[0], pair[1]
					for r := 0; r < p; r++ {
						what := fmt.Sprintf("trial %d (p=%d) collective %d rank %d", trial, p, c, r)
						sameBits(t, what+" recv", got.recv[r], want.recv[r])
						sameBits(t, what+" send", got.send[r], want.send[r])
						// And against the definition, so the reference
						// itself is checked.
						pos := 0
						for s := 0; s < p; s++ {
							for k := 0; k < counts[c][s][r]; k++ {
								if got.recv[r][pos] != elem(c, s, r, k) {
									t.Fatalf("%s: recv[%d] = %v, want block %d element %d", what, pos, got.recv[r][pos], s, k)
								}
								pos++
							}
						}
					}
				}
			}
		})
	}
}

// TestReleasePoisonIsObservable proves the suite's detector works: a port
// that releases a payload before the schedule has copied it out makes the
// comparison fail.
func TestReleasePoisonIsObservable(t *testing.T) {
	net := newFakeNet(t, 2, 1, 0, 0, 1)
	counts := [][]int{{0, 3}, {2, 0}}
	col := post(net, mpi.Exchange{}, 0, counts)
	net.step()
	// Poison rank 1's inbound payload the way Release would, while it is
	// still in the mailbox.
	for _, q := range net.ports[1].box {
		for i := range q[0].Data {
			q[0].Data[i] = complex(math.NaN(), math.NaN())
		}
	}
	run(net, col)
	if v := col.recv[1][0]; v == v {
		t.Fatalf("poisoned payload arrived as %v, want NaN", v)
	}
}

func TestPendSet(t *testing.T) {
	const p = 131
	s := newPendSet(p)
	want := map[int]bool{}
	rng := rand.New(rand.NewSource(3))
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 130} {
		s.add(i)
		want[i] = true
	}
	for i := 0; i < 40; i++ {
		if v := rng.Intn(p); !want[v] {
			s.add(v)
			want[v] = true
		}
	}
	check := func() {
		t.Helper()
		if s.n != len(want) {
			t.Fatalf("count %d, want %d", s.n, len(want))
		}
		got := s.members(nil)
		if len(got) != len(want) {
			t.Fatalf("members %v, want %d of them", got, len(want))
		}
		for i, v := range got {
			if !want[v] || (i > 0 && got[i-1] >= v) {
				t.Fatalf("members %v not the ascending set", got)
			}
		}
	}
	check()
	// Removing the member just returned must not derail the iteration.
	for i := s.next(0); i >= 0; i = s.next(i + 1) {
		if i%2 == 0 {
			s.remove(i)
			delete(want, i)
		}
	}
	check()
	if s.next(p) != -1 || s.next(131) != -1 {
		t.Fatal("next past the end should be -1")
	}
}
