package fft

// Batched multi-row Stockham execution.
//
// The per-row Transform path walks the full twiddle tables once per row and
// pays short inner loops in the early stages (the first stage applies each
// twiddle to a single element). The batched engine instead pushes a block
// of B rows through each stage together, in a row-interleaved layout:
// element i of row r lives at buf[i*B + r]. Interleaving B rows is exactly
// a Stockham pass with the stage stride multiplied by B, so the middle
// stages reuse the scalar kernels verbatim (runStageBatch) — twiddle
// factors are loaded once per stage per block instead of once per row, and
// every inner loop becomes a contiguous run of at least B elements.
//
// The first and last stages are fused with the layout change: the head
// stage reads rows directly from user memory (contiguous or strided) while
// depositing the interleaved block, and the tail stage — whose twiddles are
// all exactly 1 because q == 0 is its only iteration — writes results
// straight back, so the per-row tail copy of the ping-pong disappears and
// Strided no longer gathers through a row buffer.
//
// B is sized so the two ping-pong blocks stay cache-resident
// (rowBlockFor); results are bit-identical to the per-row path because
// every element goes through the same arithmetic in the same order.

import (
	"fmt"
	"math"
)

// rowBlockFor returns the number of rows pushed through the stage pipeline
// together for length-n transforms: large enough to amortize twiddle loads
// and lengthen inner loops, small enough that the two n·B ping-pong blocks
// (2·n·B·16 bytes) stay within the fast cache levels.
func rowBlockFor(n int) int {
	b := 2048 / n
	if b > 16 {
		b = 16
	}
	if b < 4 {
		b = 4
	}
	return b
}

// TransformRows transforms count contiguous rows of length Len() located
// at x[i*dist : i*dist+Len()] in place, dist >= Len(). It is the batched
// equivalent of calling Transform row by row (bit-identical results) and
// is the preferred path for the 3-D pipelines: rows are processed in
// blocks (rowBlockFor) so twiddle traffic and loop overhead amortize
// across the block. Not safe for concurrent use on one plan.
func (p *Plan) TransformRows(x []complex128, count, dist int) {
	if dist < p.n {
		panic(fmt.Sprintf("fft: TransformRows dist %d < length %d", dist, p.n))
	}
	p.rows(x, x, count, dist, 1, dist, 1)
}

// TransformRowsTo is TransformRows out of place: row i is read at
// src[i*dist:] and its transform written at dst[i*dist:], with the same
// bits TransformRows leaves on a copy of src. src is only read; dst may be
// src, and may not overlap it otherwise.
func (p *Plan) TransformRowsTo(dst, src []complex128, count, dist int) {
	if dist < p.n {
		panic(fmt.Sprintf("fft: TransformRowsTo dist %d < length %d", dist, p.n))
	}
	p.rows(dst, src, count, dist, 1, dist, 1)
}

// StridedRows transforms count strided lines in place: line r consists of
// the elements x[off + r*rowOff + i*stride] for i in [0, Len()). Lines
// must not overlap. This is the batched equivalent of calling Strided once
// per line (bit-identical results); the head/tail stages read and write
// the strided memory directly, so no gather buffer is involved. Not safe
// for concurrent use on one plan.
func (p *Plan) StridedRows(x []complex128, off, stride, count, rowOff int) {
	if stride < 1 {
		panic(fmt.Sprintf("fft: StridedRows stride %d < 1", stride))
	}
	if count <= 0 {
		return
	}
	p.rows(x[off:], x[off:], count, rowOff, stride, rowOff, stride)
}

// StridedRowsTo transforms count lines out of place, reading and writing
// with independent layouts: line r element i is read at
// src[r*srcRowOff + i*srcStride] and its transform written at
// dst[r*dstRowOff + i*dstStride], with the bits TransformRows leaves on the
// gathered rows. A transform can thus land its output transposed: rows read
// with (rowOff, stride) = (n, 1) and written with (1, m) leave row r as
// column r of an n×m array. src is only read and must not overlap dst.
func (p *Plan) StridedRowsTo(dst, src []complex128, count, srcRowOff, srcStride, dstRowOff, dstStride int) {
	if srcStride < 1 || dstStride < 1 {
		panic(fmt.Sprintf("fft: StridedRowsTo strides %d, %d < 1", srcStride, dstStride))
	}
	p.rows(dst, src, count, srcRowOff, srcStride, dstRowOff, dstStride)
}

// rows is the shared batched driver: line r element i is read at
// src[r*srcRowOff + i*srcStride] and written at dst[r*dstRowOff + i*dstStride].
func (p *Plan) rows(dst, src []complex128, count, srcRowOff, srcStride, dstRowOff, dstStride int) {
	if count <= 0 {
		return
	}
	if p.blue != nil || len(p.stages) < 2 {
		// Bluestein, single-stage and length-1 plans have no separate
		// head/tail stages to fuse; run them row by row.
		p.rowsFallback(dst, src, count, srcRowOff, srcStride, dstRowOff, dstStride)
		return
	}
	p.ensureBatch()
	bmax := len(p.batchA) / p.n
	for r0 := 0; r0 < count; r0 += bmax {
		b := bmax
		if r0+b > count {
			b = count - r0
		}
		p.transformBlock(dst[r0*dstRowOff:], src[r0*srcRowOff:], b, srcRowOff, srcStride, dstRowOff, dstStride)
	}
}

// rowsFallback runs the per-row path, gathering and scattering strided
// lines through the plan's row buffer.
func (p *Plan) rowsFallback(dst, src []complex128, count, srcRowOff, srcStride, dstRowOff, dstStride int) {
	for r := 0; r < count; r++ {
		s, d := src[r*srcRowOff:], dst[r*dstRowOff:]
		if srcStride == 1 && dstStride == 1 {
			p.Transform(d[:p.n], s[:p.n])
			continue
		}
		if p.rowbuf == nil {
			p.rowbuf = make([]complex128, p.n)
		}
		for i := range p.rowbuf {
			p.rowbuf[i] = s[i*srcStride]
		}
		p.Transform(p.rowbuf, p.rowbuf)
		for i, v := range p.rowbuf {
			d[i*dstStride] = v
		}
	}
}

// ensureBatch allocates the row-interleaved ping-pong blocks on first use.
func (p *Plan) ensureBatch() {
	if p.batchA == nil {
		bmax := rowBlockFor(p.n)
		p.batchA = make([]complex128, p.n*bmax)
		p.batchB = make([]complex128, p.n*bmax)
	}
}

// transformBlock pushes one block of b rows through all stages. The head
// stage reads the rows from src and writes the interleaved block; middle
// stages ping-pong between the two interleaved buffers with the stage
// stride scaled by b; the tail stage scatters straight into dst. All
// reads of src complete before any write, so in-place blocks are safe.
func (p *Plan) transformBlock(dst, src []complex128, b, srcRowOff, srcStride, dstRowOff, dstStride int) {
	k := len(p.stages)
	cur := p.batchA
	runHead(&p.stages[0], src, cur, b, srcRowOff, srcStride, p.dir)
	for i := 1; i < k-1; i++ {
		out := p.batchB
		if i%2 == 0 {
			out = p.batchA
		}
		runStageBatch(&p.stages[i], cur[:p.n*b], out[:p.n*b], b, p.dir)
		cur = out
	}
	runTail(&p.stages[k-1], cur, dst, b, dstRowOff, dstStride, p.dir)
}

// runHead applies the first Stockham pass (stage stride 1) reading row r's
// element i from src[r*rowOff + i*stride] and writing the interleaved
// block. The arithmetic mirrors the corresponding stage kernel exactly.
func runHead(st *stage, src, out []complex128, b, rowOff, stride int, dir Direction) {
	switch st.radix {
	case 2:
		head2(st, src, out, b, rowOff, stride)
	case 3:
		head3(st, src, out, b, rowOff, stride, dir)
	case 4:
		head4(st, src, out, b, rowOff, stride, dir)
	case 8:
		head8(st, src, out, b, rowOff, stride, dir)
	default:
		headGeneric(st, src, out, b, rowOff, stride)
	}
}

// runTail applies the last Stockham pass (m == 1, unit twiddles) reading
// the interleaved block and writing row r's element i to
// dst[r*rowOff + i*stride].
func runTail(st *stage, in, dst []complex128, b, rowOff, stride int, dir Direction) {
	switch st.radix {
	case 2:
		tail2(st, in, dst, b, rowOff, stride)
	case 3:
		tail3(st, in, dst, b, rowOff, stride, dir)
	case 4:
		tail4(st, in, dst, b, rowOff, stride, dir)
	case 8:
		tail8(st, in, dst, b, rowOff, stride, dir)
	default:
		tailGeneric(st, in, dst, b, rowOff, stride)
	}
}

func head2(st *stage, src, out []complex128, b, rowOff, stride int) {
	m := st.m
	im := m * stride
	for q := 0; q < m; q++ {
		base := q * stride
		o0 := out[2*q*b : 2*q*b+b]
		o1 := out[(2*q+1)*b : (2*q+1)*b+b]
		if q == 0 {
			for r := 0; r < b; r++ {
				ro := r * rowOff
				a := src[ro+base]
				c := src[ro+base+im]
				o0[r] = a + c
				o1[r] = a - c
			}
			continue
		}
		w := st.tw[q]
		for r := 0; r < b; r++ {
			ro := r * rowOff
			a := src[ro+base]
			c := src[ro+base+im]
			o0[r] = a + c
			o1[r] = (a - c) * w
		}
	}
}

func head3(st *stage, src, out []complex128, b, rowOff, stride int, dir Direction) {
	m := st.m
	im := m * stride
	sq := math.Sqrt(3) / 2 * float64(dir)
	for q := 0; q < m; q++ {
		base := q * stride
		o0 := out[3*q*b : 3*q*b+b]
		o1 := out[(3*q+1)*b : (3*q+1)*b+b]
		o2 := out[(3*q+2)*b : (3*q+2)*b+b]
		if q == 0 {
			for r := 0; r < b; r++ {
				ro := r * rowOff
				a0 := src[ro+base]
				a1 := src[ro+base+im]
				a2 := src[ro+base+2*im]
				t1 := a1 + a2
				t2 := a0 - complex(0.5, 0)*t1
				d := a1 - a2
				t3 := complex(-sq*imag(d), sq*real(d))
				o0[r] = a0 + t1
				o1[r] = t2 + t3
				o2[r] = t2 - t3
			}
			continue
		}
		w1 := st.tw[q*2]
		w2 := st.tw[q*2+1]
		for r := 0; r < b; r++ {
			ro := r * rowOff
			a0 := src[ro+base]
			a1 := src[ro+base+im]
			a2 := src[ro+base+2*im]
			t1 := a1 + a2
			t2 := a0 - complex(0.5, 0)*t1
			d := a1 - a2
			t3 := complex(-sq*imag(d), sq*real(d))
			o0[r] = a0 + t1
			o1[r] = (t2 + t3) * w1
			o2[r] = (t2 - t3) * w2
		}
	}
}

func head4(st *stage, src, out []complex128, b, rowOff, stride int, dir Direction) {
	m := st.m
	im := m * stride
	neg := dir == Forward
	for q := 0; q < m; q++ {
		base := q * stride
		o0 := out[4*q*b : 4*q*b+b]
		o1 := out[(4*q+1)*b : (4*q+1)*b+b]
		o2 := out[(4*q+2)*b : (4*q+2)*b+b]
		o3 := out[(4*q+3)*b : (4*q+3)*b+b]
		if q == 0 {
			for r := 0; r < b; r++ {
				ro := r * rowOff
				a0 := src[ro+base]
				a1 := src[ro+base+im]
				a2 := src[ro+base+2*im]
				a3 := src[ro+base+3*im]
				t0 := a0 + a2
				t1 := a0 - a2
				t2 := a1 + a3
				d := a1 - a3
				var t3 complex128
				if neg {
					t3 = complex(imag(d), -real(d))
				} else {
					t3 = complex(-imag(d), real(d))
				}
				o0[r] = t0 + t2
				o1[r] = t1 + t3
				o2[r] = t0 - t2
				o3[r] = t1 - t3
			}
			continue
		}
		w1 := st.tw[q*3]
		w2 := st.tw[q*3+1]
		w3 := st.tw[q*3+2]
		for r := 0; r < b; r++ {
			ro := r * rowOff
			a0 := src[ro+base]
			a1 := src[ro+base+im]
			a2 := src[ro+base+2*im]
			a3 := src[ro+base+3*im]
			t0 := a0 + a2
			t1 := a0 - a2
			t2 := a1 + a3
			d := a1 - a3
			var t3 complex128
			if neg {
				t3 = complex(imag(d), -real(d))
			} else {
				t3 = complex(-imag(d), real(d))
			}
			o0[r] = t0 + t2
			o1[r] = (t1 + t3) * w1
			o2[r] = (t0 - t2) * w2
			o3[r] = (t1 - t3) * w3
		}
	}
}

func head8(st *stage, src, out []complex128, b, rowOff, stride int, dir Direction) {
	m := st.m
	im := m * stride
	neg := dir == Forward
	for q := 0; q < m; q++ {
		base := q * stride
		o0 := out[8*q*b : 8*q*b+b]
		o1 := out[(8*q+1)*b : (8*q+1)*b+b]
		o2 := out[(8*q+2)*b : (8*q+2)*b+b]
		o3 := out[(8*q+3)*b : (8*q+3)*b+b]
		o4 := out[(8*q+4)*b : (8*q+4)*b+b]
		o5 := out[(8*q+5)*b : (8*q+5)*b+b]
		o6 := out[(8*q+6)*b : (8*q+6)*b+b]
		o7 := out[(8*q+7)*b : (8*q+7)*b+b]
		if q == 0 {
			for r := 0; r < b; r++ {
				ro := r*rowOff + base
				y0, y1, y2, y3, y4, y5, y6, y7 := bfly8(
					src[ro], src[ro+im], src[ro+2*im], src[ro+3*im],
					src[ro+4*im], src[ro+5*im], src[ro+6*im], src[ro+7*im], neg)
				o0[r] = y0
				o1[r] = y1
				o2[r] = y2
				o3[r] = y3
				o4[r] = y4
				o5[r] = y5
				o6[r] = y6
				o7[r] = y7
			}
			continue
		}
		tw := st.tw[q*7 : q*7+7]
		for r := 0; r < b; r++ {
			ro := r*rowOff + base
			y0, y1, y2, y3, y4, y5, y6, y7 := bfly8(
				src[ro], src[ro+im], src[ro+2*im], src[ro+3*im],
				src[ro+4*im], src[ro+5*im], src[ro+6*im], src[ro+7*im], neg)
			o0[r] = y0
			o1[r] = y1 * tw[0]
			o2[r] = y2 * tw[1]
			o3[r] = y3 * tw[2]
			o4[r] = y4 * tw[3]
			o5[r] = y5 * tw[4]
			o6[r] = y6 * tw[5]
			o7[r] = y7 * tw[6]
		}
	}
}

func headGeneric(st *stage, src, out []complex128, b, rowOff, stride int) {
	rr, m := st.radix, st.m
	var a [maxGenericRadix]complex128
	for q := 0; q < m; q++ {
		for r := 0; r < b; r++ {
			ro := r * rowOff
			for j := 0; j < rr; j++ {
				a[j] = src[ro+(q+j*m)*stride]
			}
			for j := 0; j < rr; j++ {
				v := a[0]
				idx := 0
				for t := 1; t < rr; t++ {
					idx += j
					if idx >= rr {
						idx -= rr
					}
					v += a[t] * st.wr[idx]
				}
				if j > 0 {
					v *= st.tw[q*(rr-1)+(j-1)]
				}
				out[(rr*q+j)*b+r] = v
			}
		}
	}
}

func tail2(st *stage, in, dst []complex128, b, rowOff, stride int) {
	s := st.s
	for k := 0; k < s; k++ {
		i0 := in[k*b : k*b+b]
		i1 := in[(s+k)*b : (s+k)*b+b]
		d0 := k * stride
		d1 := (s + k) * stride
		for r := 0; r < b; r++ {
			ro := r * rowOff
			a := i0[r]
			c := i1[r]
			dst[ro+d0] = a + c
			dst[ro+d1] = a - c
		}
	}
}

func tail3(st *stage, in, dst []complex128, b, rowOff, stride int, dir Direction) {
	s := st.s
	sq := math.Sqrt(3) / 2 * float64(dir)
	for k := 0; k < s; k++ {
		i0 := in[k*b : k*b+b]
		i1 := in[(s+k)*b : (s+k)*b+b]
		i2 := in[(2*s+k)*b : (2*s+k)*b+b]
		d0 := k * stride
		d1 := (s + k) * stride
		d2 := (2*s + k) * stride
		for r := 0; r < b; r++ {
			ro := r * rowOff
			a0 := i0[r]
			a1 := i1[r]
			a2 := i2[r]
			t1 := a1 + a2
			t2 := a0 - complex(0.5, 0)*t1
			d := a1 - a2
			t3 := complex(-sq*imag(d), sq*real(d))
			dst[ro+d0] = a0 + t1
			dst[ro+d1] = t2 + t3
			dst[ro+d2] = t2 - t3
		}
	}
}

func tail4(st *stage, in, dst []complex128, b, rowOff, stride int, dir Direction) {
	s := st.s
	neg := dir == Forward
	for k := 0; k < s; k++ {
		i0 := in[k*b : k*b+b]
		i1 := in[(s+k)*b : (s+k)*b+b]
		i2 := in[(2*s+k)*b : (2*s+k)*b+b]
		i3 := in[(3*s+k)*b : (3*s+k)*b+b]
		d0 := k * stride
		d1 := (s + k) * stride
		d2 := (2*s + k) * stride
		d3 := (3*s + k) * stride
		for r := 0; r < b; r++ {
			ro := r * rowOff
			a0 := i0[r]
			a1 := i1[r]
			a2 := i2[r]
			a3 := i3[r]
			t0 := a0 + a2
			t1 := a0 - a2
			t2 := a1 + a3
			d := a1 - a3
			var t3 complex128
			if neg {
				t3 = complex(imag(d), -real(d))
			} else {
				t3 = complex(-imag(d), real(d))
			}
			dst[ro+d0] = t0 + t2
			dst[ro+d1] = t1 + t3
			dst[ro+d2] = t0 - t2
			dst[ro+d3] = t1 - t3
		}
	}
}

func tail8(st *stage, in, dst []complex128, b, rowOff, stride int, dir Direction) {
	s := st.s
	neg := dir == Forward
	for k := 0; k < s; k++ {
		i0 := in[k*b : k*b+b]
		i1 := in[(s+k)*b : (s+k)*b+b]
		i2 := in[(2*s+k)*b : (2*s+k)*b+b]
		i3 := in[(3*s+k)*b : (3*s+k)*b+b]
		i4 := in[(4*s+k)*b : (4*s+k)*b+b]
		i5 := in[(5*s+k)*b : (5*s+k)*b+b]
		i6 := in[(6*s+k)*b : (6*s+k)*b+b]
		i7 := in[(7*s+k)*b : (7*s+k)*b+b]
		for r := 0; r < b; r++ {
			ro := r * rowOff
			y0, y1, y2, y3, y4, y5, y6, y7 := bfly8(
				i0[r], i1[r], i2[r], i3[r], i4[r], i5[r], i6[r], i7[r], neg)
			dst[ro+k*stride] = y0
			dst[ro+(s+k)*stride] = y1
			dst[ro+(2*s+k)*stride] = y2
			dst[ro+(3*s+k)*stride] = y3
			dst[ro+(4*s+k)*stride] = y4
			dst[ro+(5*s+k)*stride] = y5
			dst[ro+(6*s+k)*stride] = y6
			dst[ro+(7*s+k)*stride] = y7
		}
	}
}

func tailGeneric(st *stage, in, dst []complex128, b, rowOff, stride int) {
	rr, s := st.radix, st.s
	var a [maxGenericRadix]complex128
	for k := 0; k < s; k++ {
		for r := 0; r < b; r++ {
			ro := r * rowOff
			for j := 0; j < rr; j++ {
				a[j] = in[(s*j+k)*b+r]
			}
			for j := 0; j < rr; j++ {
				v := a[0]
				idx := 0
				for t := 1; t < rr; t++ {
					idx += j
					if idx >= rr {
						idx -= rr
					}
					v += a[t] * st.wr[idx]
				}
				dst[ro+(s*j+k)*stride] = v
			}
		}
	}
}
