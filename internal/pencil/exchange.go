package pencil

import (
	"offt/internal/fft"
	"offt/internal/layout"
	"offt/internal/mpi"
	"offt/internal/pfft"
)

// The spatial axes, indexing every per-axis array below.
const (
	axX = iota
	axY
	axZ
)

var fftNames = [3]string{"FFTx", "FFTy", "FFTz"}

// fftAcc is the Breakdown field of the row FFT along axis a.
func fftAcc(b *pfft.Breakdown, a int) *int64 {
	switch a {
	case axX:
		return &b.FFTx
	case axY:
		return &b.FFTy
	}
	return &b.FFTz
}

// array is one of a rank's three local pencils: its extent along each
// axis and its memory order, outermost axis first. The innermost axis is
// the one it holds whole and transforms along.
type array struct {
	data  []complex128
	ext   [3]int
	order [3]int
	fft   [2]*fft.Plan // forward and backward row FFTs (nil on the simulator)
}

func (a *array) whole() int { return a.order[2] }

// stride returns the element stride of axis ax.
func (a *array) stride(ax int) int {
	switch ax {
	case a.order[2]:
		return 1
	case a.order[1]:
		return a.ext[a.order[2]]
	}
	return a.ext[a.order[1]] * a.ext[a.order[2]]
}

// side is an array as one exchange sees it: dist splits the array's whole
// axis over the exchange's group, and the block it sends member j, or
// receives from it, holds member j's range of that axis.
type side struct {
	*array
	dist layout.Dist
}

// exchange is one redistribution within a group of ranks between two
// arrays that hold different axes whole, tiled along a third axis both
// hold with the same local extent. Both sides walk a block in the one axis
// order, so the walk that packs it on the sending side unpacks it on the
// receiving one, whichever way the exchange runs.
type exchange struct {
	order   [3]int // axis order of a block, outermost first
	tiled   int
	tileMax int   // the tiled axis's largest local extent over all ranks
	group   []int // world rank of each member, ascending
	sides   [2]side
}

// tiles returns the tile count at tile size t: the same on every rank, so
// ranks with a smaller extent run trailing empty tiles.
func (x *exchange) tiles(t int) int { return (x.tileMax + t - 1) / t }

// box returns the index ranges [r0, r1) of member j's block of tile
// [lo, hi) on s.
func (x *exchange) box(s *side, j, lo, hi int) (r0, r1 [3]int) {
	w := s.whole()
	r1 = s.ext
	r0[x.tiled], r1[x.tiled] = lo, hi
	r0[w], r1[w] = s.dist.Start(j), s.dist.Start(j)+s.dist.Count(j)
	return r0, r1
}

// elems returns the element count of tile [lo, hi) on s.
func (x *exchange) elems(s *side, lo, hi int) int {
	n := hi - lo
	for a, e := range s.ext {
		if a != x.tiled {
			n *= e
		}
	}
	return n
}

// counts fills the world-sized count vectors of tile [lo, hi) sent from
// side from and returns their sums.
func (x *exchange) counts(from, lo, hi int, send, recv []int) (ns, nr int) {
	clear(send)
	clear(recv)
	for j, r := range x.group {
		r0, r1 := x.box(&x.sides[from], j, lo, hi)
		send[r] = (r1[0] - r0[0]) * (r1[1] - r0[1]) * (r1[2] - r0[2])
		r0, r1 = x.box(&x.sides[1-from], j, lo, hi)
		recv[r] = (r1[0] - r0[0]) * (r1[1] - r0[1]) * (r1[2] - r0[2])
		ns += send[r]
		nr += recv[r]
	}
	return ns, nr
}

// move walks every member's block of tile [lo, hi) on s in group order,
// packing it into buf or, when !pack, unpacking it from buf.
func (x *exchange) move(s *side, buf []complex128, lo, hi int, pack bool) {
	a0, a1, a2 := x.order[0], x.order[1], x.order[2]
	s0, s1, s2 := s.stride(a0), s.stride(a1), s.stride(a2)
	n := 0
	for j := range x.group {
		r0, r1 := x.box(s, j, lo, hi)
		for i0 := r0[a0]; i0 < r1[a0]; i0++ {
			for i1 := r0[a1]; i1 < r1[a1]; i1++ {
				base := i0*s0 + i1*s1
				switch {
				case s2 == 1 && pack:
					n += copy(buf[n:], s.data[base+r0[a2]:base+r1[a2]])
				case s2 == 1:
					n += copy(s.data[base+r0[a2]:base+r1[a2]], buf[n:])
				case pack:
					for i2 := r0[a2]; i2 < r1[a2]; i2++ {
						buf[n] = s.data[base+i2*s2]
						n++
					}
				default:
					for i2 := r0[a2]; i2 < r1[a2]; i2++ {
						s.data[base+i2*s2] = buf[n]
						n++
					}
				}
			}
		}
	}
}

// transform runs s's row FFT in direction dir on tile [lo, hi): one batch
// when the tile's rows are contiguous, else one per outer index.
func (x *exchange) transform(s *side, dir, lo, hi int) {
	o, m, n := s.order[0], s.order[1], s.ext[s.whole()]
	r0, r1 := [3]int{}, s.ext
	r0[x.tiled], r1[x.tiled] = lo, hi
	f := s.fft[dir]
	if r0[m] == 0 && r1[m] == s.ext[m] {
		f.Batch(s.data[r0[o]*s.stride(o):], (r1[o]-r0[o])*s.ext[m], n)
		return
	}
	for i := r0[o]; i < r1[o]; i++ {
		f.Batch(s.data[i*s.stride(o)+r0[m]*n:], r1[m]-r0[m], n)
	}
}

// phase binds one run of exchange x, from side from to the other, in
// tiles of t and FFT direction dir: Front transforms the sending side's
// tile when the run is its direction's first, then packs it; Post starts
// the tile's exchange; Back unpacks the tile on the receiving side and
// transforms it. On the simulator (p.cost set) every step charges the cost
// model instead.
func (p *Plan) phase(x *exchange, from, dir, t int, first bool) pfft.Phase {
	src, dst := &x.sides[from], &x.sides[1-from]
	pl, f := p.pl, p.prm.F
	return pfft.Phase{
		Front: func(i, slot int, win []mpi.Request) {
			lo, hi := tileRange(i, t, src.ext[x.tiled])
			if first {
				ts := p.c.Now()
				p.transformStep(x, src, dir, lo, hi)
				pl.Step(fftAcc(&pl.B, src.whole()), fftNames[src.whole()], ts, i)
				pl.Tests(win, f)
			}
			ts := p.c.Now()
			p.copyStep(x, src, p.send, slot, lo, hi, true)
			pl.Step(&pl.B.Pack, "Pack", ts, i)
			pl.Tests(win, f)
		},
		Post: func(i, slot int) mpi.Request {
			lo, hi := tileRange(i, t, src.ext[x.tiled])
			ns, nr := x.counts(from, lo, hi, p.sendCounts, p.recvCounts)
			var send, recv []complex128
			if p.cost == nil {
				send, recv = p.send[slot][:ns], p.recv[slot][:nr]
			}
			return p.c.Ialltoallv(send, p.sendCounts, recv, p.recvCounts)
		},
		Back: func(i, slot int, win []mpi.Request) {
			lo, hi := tileRange(i, t, dst.ext[x.tiled])
			ts := p.c.Now()
			p.copyStep(x, dst, p.recv, slot, lo, hi, false)
			pl.Step(&pl.B.Unpack, "Unpack", ts, i)
			pl.Tests(win, f)
			ts = p.c.Now()
			p.transformStep(x, dst, dir, lo, hi)
			pl.Step(fftAcc(&pl.B, dst.whole()), fftNames[dst.whole()], ts, i)
			pl.Tests(win, f)
		},
	}
}

// transformStep is a phase's row FFT step.
func (p *Plan) transformStep(x *exchange, s *side, dir, lo, hi int) {
	if p.cost != nil {
		n := s.ext[s.whole()]
		p.cost.fft(x.elems(s, lo, hi)/n, n)
		return
	}
	x.transform(s, dir, lo, hi)
}

// copyStep is a phase's pack (or unpack) step through slot buffer bufs[slot].
func (p *Plan) copyStep(x *exchange, s *side, bufs [][]complex128, slot, lo, hi int, pack bool) {
	if p.cost != nil {
		p.cost.copy(x.elems(s, lo, hi))
		return
	}
	x.move(s, bufs[slot], lo, hi, pack)
}

// tileRange returns tile i of size t as a range [lo, hi) clamped to the
// local extent n.
func tileRange(i, t, n int) (lo, hi int) {
	return min(i*t, n), min(i*t+t, n)
}
