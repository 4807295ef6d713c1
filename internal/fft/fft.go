// Package fft provides one-dimensional and three-dimensional complex-to-complex
// fast Fourier transforms built from scratch on the standard library.
//
// It is the substrate that replaces FFTW in this reproduction: the parallel
// 3-D FFT in package pfft uses fft for every local 1-D transform, and the
// planner in this package (see Flag) plays the role of FFTW_ESTIMATE /
// FFTW_MEASURE / FFTW_PATIENT plan tuning.
//
// The core algorithm is a Stockham autosort decimation-in-frequency FFT with
// mixed radices 2, 3 and 4, a generic O(r²) butterfly for small odd prime
// radices, and Bluestein's chirp-z algorithm for lengths containing a large
// prime factor. Transforms are unnormalized: Forward followed by Backward
// multiplies the input by N (use Scale to normalize), matching FFTW.
package fft

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Direction selects the sign of the transform exponent.
type Direction int

const (
	// Forward computes Y[k] = Σ_j X[j]·exp(-2πi·jk/N).
	Forward Direction = -1
	// Backward computes Y[k] = Σ_j X[j]·exp(+2πi·jk/N) (unnormalized).
	Backward Direction = +1
)

func (d Direction) String() string {
	if d == Forward {
		return "forward"
	}
	return "backward"
}

// maxGenericRadix is the largest prime handled by the generic O(r²)
// butterfly; lengths with a larger prime factor go through Bluestein.
const maxGenericRadix = 31

// stage describes one Stockham pass.
type stage struct {
	radix int
	m     int          // n/radix at this stage
	s     int          // stride (product of earlier radices)
	tw    []complex128 // tw[p*(radix-1)+(j-1)] = w_n^{p·j}
	wr    []complex128 // radix-point roots for the generic butterfly (nil for 2,3,4)
}

// Plan holds the precomputed decomposition and twiddle factors for a 1-D
// transform of a fixed length and direction. Plans are safe for concurrent
// use by multiple goroutines except for the methods that use the internal
// scratch buffers, which are documented as such; use Clone for concurrent
// in-place transforms.
type Plan struct {
	n       int
	dir     Direction
	factors []int
	stages  []stage
	blue    *bluestein   // non-nil when Bluestein's algorithm is used
	scratch []complex128 // single-row ping-pong buffer
	rowbuf  []complex128 // strided gather buffer for the fallback paths
	// Row-interleaved ping-pong buffers for the batched multi-row engine
	// (see batch.go); sized n·rowBlockFor(n), allocated on first use.
	batchA, batchB []complex128
}

// NewPlan creates a plan for length n in the given direction using the
// default factor ordering (the Estimate heuristic). n must be >= 1.
func NewPlan(n int, dir Direction) *Plan {
	p, err := newPlanFactors(n, dir, nil)
	if err != nil {
		panic(err) // unreachable: nil factors never fail
	}
	return p
}

// newPlanFactors builds a plan with an explicit factor ordering; factors nil
// means "use the default heuristic order". It reports an error if the factor
// list does not multiply to n or contains an unsupported radix.
func newPlanFactors(n int, dir Direction, factors []int) (*Plan, error) {
	if n < 1 {
		return nil, fmt.Errorf("fft: invalid transform length %d", n)
	}
	p := &Plan{n: n, dir: dir}
	if n == 1 {
		return p, nil
	}
	if factors == nil {
		f, rest := factorize(n)
		if rest != 1 {
			// Large prime factor: Bluestein over the whole length.
			p.blue = newBluestein(n, dir)
			return p, nil
		}
		factors = f
	} else {
		prod := 1
		for _, r := range factors {
			if r < 2 || r > maxGenericRadix {
				return nil, fmt.Errorf("fft: unsupported radix %d", r)
			}
			prod *= r
		}
		if prod != n {
			return nil, fmt.Errorf("fft: factors %v do not multiply to %d", factors, n)
		}
	}
	p.factors = factors
	p.buildStages()
	p.scratch = make([]complex128, n)
	return p, nil
}

// factorize splits n into supported radices: fours first, then a two, then
// odd primes up to maxGenericRadix in increasing order. The second return
// value is the unfactored remainder (1 when fully factored).
func factorize(n int) (factors []int, rest int) {
	for n%4 == 0 {
		factors = append(factors, 4)
		n /= 4
	}
	if n%2 == 0 {
		factors = append(factors, 2)
		n /= 2
	}
	for r := 3; r <= maxGenericRadix; r += 2 {
		for n%r == 0 {
			factors = append(factors, r)
			n /= r
		}
	}
	return factors, n
}

// HasLargePrimeFactor reports whether a length-n transform requires
// Bluestein's algorithm under this package's radix set.
func HasLargePrimeFactor(n int) bool {
	_, rest := factorize(n)
	return rest != 1
}

func (p *Plan) buildStages() {
	n, s := p.n, 1
	sign := float64(p.dir)
	p.stages = make([]stage, 0, len(p.factors))
	for _, r := range p.factors {
		m := n / r
		st := stage{radix: r, m: m, s: s}
		st.tw = make([]complex128, m*(r-1))
		for q := 0; q < m; q++ {
			for j := 1; j < r; j++ {
				ang := sign * 2 * math.Pi * float64(q*j) / float64(n)
				st.tw[q*(r-1)+(j-1)] = complex(math.Cos(ang), math.Sin(ang))
			}
		}
		if r != 2 && r != 3 && r != 4 && r != 8 {
			st.wr = make([]complex128, r)
			for k := 0; k < r; k++ {
				ang := sign * 2 * math.Pi * float64(k) / float64(r)
				st.wr[k] = complex(math.Cos(ang), math.Sin(ang))
			}
		}
		p.stages = append(p.stages, st)
		n = m
		s *= r
	}
}

// Len returns the transform length.
func (p *Plan) Len() int { return p.n }

// Dir returns the transform direction.
func (p *Plan) Dir() Direction { return p.dir }

// Factors returns the radix sequence used by the plan (nil when Bluestein's
// algorithm handles the whole length).
func (p *Plan) Factors() []int {
	out := make([]int, len(p.factors))
	copy(out, p.factors)
	return out
}

// Clone returns a plan that shares the immutable twiddle tables with p but
// has private scratch buffers, so the clone can run concurrently with p.
func (p *Plan) Clone() *Plan {
	q := &Plan{n: p.n, dir: p.dir, factors: p.factors, stages: p.stages}
	if p.blue != nil {
		q.blue = p.blue.clone()
	}
	if p.scratch != nil {
		q.scratch = make([]complex128, p.n)
	}
	return q
}

// Transform computes the transform of src into dst. dst and src must both
// have length Len(); dst may alias src (in-place). Not safe for concurrent
// use with other scratch-using methods on the same plan.
func (p *Plan) Transform(dst, src []complex128) {
	if len(dst) != p.n || len(src) != p.n {
		panic(fmt.Sprintf("fft: Transform length mismatch: plan %d, dst %d, src %d", p.n, len(dst), len(src)))
	}
	if p.n == 1 {
		dst[0] = src[0]
		return
	}
	if p.blue != nil {
		p.blue.transform(dst, src)
		return
	}
	// Stockham ping-pong: stage i reads b_{i-1} and writes b_i. Arrange the
	// buffer parity so the final stage lands in dst whenever possible.
	k := len(p.stages)
	var bufA, bufB []complex128 // stages alternate writing bufA, bufB, bufA, ...
	inPlace := &dst[0] == &src[0]
	if inPlace {
		bufA, bufB = p.scratch, src
	} else if k%2 == 1 {
		bufA, bufB = dst, p.scratch
	} else {
		bufA, bufB = p.scratch, dst
	}
	cur := src
	for i := range p.stages {
		out := bufA
		if i%2 == 1 {
			out = bufB
		}
		p.runStage(&p.stages[i], cur, out)
		cur = out
	}
	if &cur[0] != &dst[0] {
		copy(dst, cur)
	}
}

// InPlace transforms x in place. Not safe for concurrent use on one plan.
func (p *Plan) InPlace(x []complex128) { p.Transform(x, x) }

// Batch transforms count contiguous rows of length Len() located at
// x[i*dist : i*dist+Len()]. dist must be >= Len(). Not safe for concurrent
// use on one plan. Rows are pushed through the batched multi-row engine
// (see TransformRows); results are bit-identical to per-row Transform.
func (p *Plan) Batch(x []complex128, count, dist int) {
	p.TransformRows(x, count, dist)
}

// Strided transforms the n elements x[off], x[off+stride], ... in place.
// Not safe for concurrent use on one plan. Multi-stage plans run the
// stride-aware first/last stages directly on the strided memory; only the
// Bluestein and single-stage fallbacks still gather into a row buffer.
func (p *Plan) Strided(x []complex128, off, stride int) {
	if stride == 1 {
		row := x[off : off+p.n]
		p.Transform(row, row)
		return
	}
	p.rows(x[off:], x[off:], 1, 0, stride, 0, stride)
}

// runStage applies one Stockham pass from in to out.
func (p *Plan) runStage(st *stage, in, out []complex128) {
	runStageBatch(st, in, out, 1, p.dir)
}

// runStageBatch applies one Stockham pass with the stage stride scaled by
// bs. bs == 1 is the plain single-row pass; bs == B runs the pass over a
// block of B row-interleaved transforms at once (interleaving B rows is
// exactly a stride-multiplied Stockham pass, so the same kernels serve
// both paths and produce bit-identical results).
func runStageBatch(st *stage, in, out []complex128, bs int, dir Direction) {
	switch st.radix {
	case 2:
		stage2(st, in, out, bs)
	case 3:
		stage3(st, in, out, bs, dir)
	case 4:
		stage4(st, in, out, bs, dir)
	case 8:
		stage8(st, in, out, bs, dir)
	default:
		stageGeneric(st, in, out, bs)
	}
}

// stage2 performs a radix-2 DIF Stockham pass.
func stage2(st *stage, in, out []complex128, bs int) {
	m, s := st.m, st.s*bs
	// q == 0: the twiddle is exactly 1+0i, so the multiply is skipped.
	{
		ia := in[:s]
		ib := in[s*m : s*m+s]
		oa := out[:s]
		ob := out[s : 2*s]
		for k := 0; k < s; k++ {
			a := ia[k]
			b := ib[k]
			oa[k] = a + b
			ob[k] = a - b
		}
	}
	for q := 1; q < m; q++ {
		w := st.tw[q]
		ia := in[s*q : s*q+s]
		ib := in[s*(q+m) : s*(q+m)+s]
		oa := out[s*2*q : s*2*q+s]
		ob := out[s*(2*q+1) : s*(2*q+1)+s]
		for k := 0; k < s; k++ {
			a := ia[k]
			b := ib[k]
			oa[k] = a + b
			ob[k] = (a - b) * w
		}
	}
}

// stage3 performs a radix-3 DIF Stockham pass.
func stage3(st *stage, in, out []complex128, bs int, dir Direction) {
	m, s := st.m, st.s*bs
	// For forward (sign -1): w3 = -1/2 - i·√3/2; t3 uses i·sin part.
	sq := math.Sqrt(3) / 2 * float64(dir)
	for q := 0; q < m; q++ {
		w1 := st.tw[q*2]
		w2 := st.tw[q*2+1]
		i0 := in[s*q : s*q+s]
		i1 := in[s*(q+m) : s*(q+m)+s]
		i2 := in[s*(q+2*m) : s*(q+2*m)+s]
		o0 := out[s*3*q : s*3*q+s]
		o1 := out[s*(3*q+1) : s*(3*q+1)+s]
		o2 := out[s*(3*q+2) : s*(3*q+2)+s]
		if q == 0 {
			// Unit twiddles: pure butterfly.
			for k := 0; k < s; k++ {
				a0 := i0[k]
				a1 := i1[k]
				a2 := i2[k]
				t1 := a1 + a2
				t2 := a0 - complex(0.5, 0)*t1
				d := a1 - a2
				t3 := complex(-sq*imag(d), sq*real(d))
				o0[k] = a0 + t1
				o1[k] = t2 + t3
				o2[k] = t2 - t3
			}
			continue
		}
		for k := 0; k < s; k++ {
			a0 := i0[k]
			a1 := i1[k]
			a2 := i2[k]
			t1 := a1 + a2
			t2 := a0 - complex(0.5, 0)*t1
			d := a1 - a2
			// t3 = i·sign·(√3/2)·(a1-a2)
			t3 := complex(-sq*imag(d), sq*real(d))
			o0[k] = a0 + t1
			o1[k] = (t2 + t3) * w1
			o2[k] = (t2 - t3) * w2
		}
	}
}

// stage4 performs a radix-4 DIF Stockham pass.
func stage4(st *stage, in, out []complex128, bs int, dir Direction) {
	m, s := st.m, st.s*bs
	neg := dir == Forward // multiply by -i for forward, +i for backward
	for q := 0; q < m; q++ {
		w1 := st.tw[q*3]
		w2 := st.tw[q*3+1]
		w3 := st.tw[q*3+2]
		i0 := in[s*q : s*q+s]
		i1 := in[s*(q+m) : s*(q+m)+s]
		i2 := in[s*(q+2*m) : s*(q+2*m)+s]
		i3 := in[s*(q+3*m) : s*(q+3*m)+s]
		o0 := out[s*4*q : s*4*q+s]
		o1 := out[s*(4*q+1) : s*(4*q+1)+s]
		o2 := out[s*(4*q+2) : s*(4*q+2)+s]
		o3 := out[s*(4*q+3) : s*(4*q+3)+s]
		if q == 0 {
			// Unit twiddles: pure butterfly.
			for k := 0; k < s; k++ {
				a0 := i0[k]
				a1 := i1[k]
				a2 := i2[k]
				a3 := i3[k]
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
				o0[k] = t0 + t2
				o1[k] = t1 + t3
				o2[k] = t0 - t2
				o3[k] = t1 - t3
			}
			continue
		}
		for k := 0; k < s; k++ {
			a0 := i0[k]
			a1 := i1[k]
			a2 := i2[k]
			a3 := i3[k]
			t0 := a0 + a2
			t1 := a0 - a2
			t2 := a1 + a3
			d := a1 - a3
			var t3 complex128
			if neg {
				t3 = complex(imag(d), -real(d)) // -i·d
			} else {
				t3 = complex(-imag(d), real(d)) // +i·d
			}
			o0[k] = t0 + t2
			o1[k] = (t1 + t3) * w1
			o2[k] = (t0 - t2) * w2
			o3[k] = (t1 - t3) * w3
		}
	}
}

// sqrt2half is √2/2, the radix-8 chirp constant.
const sqrt2half = 0.707106781186547524400844362104849039

// stage8 performs a radix-8 DIF Stockham pass. The butterfly is split into
// eight radix-2 pairs feeding two radix-4 DFTs (even outputs from the sums,
// odd outputs from the ω₈-chirped differences), so one pass replaces a
// 4-stage-plus-2-stage pair with far fewer twiddle loads than the generic
// O(r²) butterfly.
func stage8(st *stage, in, out []complex128, bs int, dir Direction) {
	m, s := st.m, st.s*bs
	neg := dir == Forward
	for q := 0; q < m; q++ {
		i0 := in[s*q : s*q+s]
		i1 := in[s*(q+m) : s*(q+m)+s]
		i2 := in[s*(q+2*m) : s*(q+2*m)+s]
		i3 := in[s*(q+3*m) : s*(q+3*m)+s]
		i4 := in[s*(q+4*m) : s*(q+4*m)+s]
		i5 := in[s*(q+5*m) : s*(q+5*m)+s]
		i6 := in[s*(q+6*m) : s*(q+6*m)+s]
		i7 := in[s*(q+7*m) : s*(q+7*m)+s]
		o0 := out[s*8*q : s*8*q+s]
		o1 := out[s*(8*q+1) : s*(8*q+1)+s]
		o2 := out[s*(8*q+2) : s*(8*q+2)+s]
		o3 := out[s*(8*q+3) : s*(8*q+3)+s]
		o4 := out[s*(8*q+4) : s*(8*q+4)+s]
		o5 := out[s*(8*q+5) : s*(8*q+5)+s]
		o6 := out[s*(8*q+6) : s*(8*q+6)+s]
		o7 := out[s*(8*q+7) : s*(8*q+7)+s]
		if q == 0 {
			// Unit twiddles: pure butterfly.
			for k := 0; k < s; k++ {
				y0, y1, y2, y3, y4, y5, y6, y7 := bfly8(
					i0[k], i1[k], i2[k], i3[k], i4[k], i5[k], i6[k], i7[k], neg)
				o0[k] = y0
				o1[k] = y1
				o2[k] = y2
				o3[k] = y3
				o4[k] = y4
				o5[k] = y5
				o6[k] = y6
				o7[k] = y7
			}
			continue
		}
		tw := st.tw[q*7 : q*7+7]
		w1, w2, w3, w4, w5, w6, w7 := tw[0], tw[1], tw[2], tw[3], tw[4], tw[5], tw[6]
		for k := 0; k < s; k++ {
			y0, y1, y2, y3, y4, y5, y6, y7 := bfly8(
				i0[k], i1[k], i2[k], i3[k], i4[k], i5[k], i6[k], i7[k], neg)
			o0[k] = y0
			o1[k] = y1 * w1
			o2[k] = y2 * w2
			o3[k] = y3 * w3
			o4[k] = y4 * w4
			o5[k] = y5 * w5
			o6[k] = y6 * w6
			o7[k] = y7 * w7
		}
	}
}

// bfly8 computes one 8-point DFT (outputs in natural order) via the
// split into two radix-4 DFTs. neg selects the forward (-i) rotation.
func bfly8(a0, a1, a2, a3, a4, a5, a6, a7 complex128, neg bool) (y0, y1, y2, y3, y4, y5, y6, y7 complex128) {
	const c = sqrt2half
	t0 := a0 + a4
	u0 := a0 - a4
	t1 := a1 + a5
	u1 := a1 - a5
	t2 := a2 + a6
	u2 := a2 - a6
	t3 := a3 + a7
	u3 := a3 - a7
	// Chirp the odd branch: v_t = u_t·ω₈^t.
	var v1, v2, v3 complex128
	if neg { // forward: ω₈ = c−ci, ω₈² = −i, ω₈³ = −c−ci
		v1 = complex(c*(real(u1)+imag(u1)), c*(imag(u1)-real(u1)))
		v2 = complex(imag(u2), -real(u2))
		v3 = complex(c*(imag(u3)-real(u3)), -c*(real(u3)+imag(u3)))
	} else { // backward: ω₈ = c+ci, ω₈² = +i, ω₈³ = −c+ci
		v1 = complex(c*(real(u1)-imag(u1)), c*(imag(u1)+real(u1)))
		v2 = complex(-imag(u2), real(u2))
		v3 = complex(-c*(real(u3)+imag(u3)), c*(real(u3)-imag(u3)))
	}
	// Even outputs: radix-4 DFT of the sums.
	p0 := t0 + t2
	p1 := t0 - t2
	p2 := t1 + t3
	d := t1 - t3
	var p3 complex128
	if neg {
		p3 = complex(imag(d), -real(d))
	} else {
		p3 = complex(-imag(d), real(d))
	}
	y0 = p0 + p2
	y2 = p1 + p3
	y4 = p0 - p2
	y6 = p1 - p3
	// Odd outputs: radix-4 DFT of the chirped differences.
	r0 := u0 + v2
	r1 := u0 - v2
	r2 := v1 + v3
	e := v1 - v3
	var r3 complex128
	if neg {
		r3 = complex(imag(e), -real(e))
	} else {
		r3 = complex(-imag(e), real(e))
	}
	y1 = r0 + r2
	y3 = r1 + r3
	y5 = r0 - r2
	y7 = r1 - r3
	return
}

// stageGeneric performs an O(r²) butterfly pass for any small prime radix.
func stageGeneric(st *stage, in, out []complex128, bs int) {
	r, m, s := st.radix, st.m, st.s*bs
	var a [maxGenericRadix]complex128
	for q := 0; q < m; q++ {
		for k := 0; k < s; k++ {
			for j := 0; j < r; j++ {
				a[j] = in[s*(q+j*m)+k]
			}
			for j := 0; j < r; j++ {
				b := a[0]
				idx := 0
				for t := 1; t < r; t++ {
					idx += j
					if idx >= r {
						idx -= r
					}
					b += a[t] * st.wr[idx]
				}
				if j > 0 {
					b *= st.tw[q*(r-1)+(j-1)]
				}
				out[s*(r*q+j)+k] = b
			}
		}
	}
}

// Scale multiplies every element of x by 1/n, the normalization that makes
// Backward(Forward(x)) == x.
func Scale(x []complex128) {
	inv := 1 / float64(len(x))
	for i := range x {
		x[i] = complex(real(x[i])*inv, imag(x[i])*inv)
	}
}

// ScaleBy multiplies every element of x by f.
func ScaleBy(x []complex128, f float64) {
	for i := range x {
		x[i] = complex(real(x[i])*f, imag(x[i])*f)
	}
}

// bluestein implements the chirp-z transform for arbitrary lengths.
type bluestein struct {
	n     int
	dir   Direction
	m     int // convolution length, a power of two >= 2n-1
	chirp []complex128
	bfft  []complex128 // forward FFT of the padded conjugate chirp
	fwd   *Plan
	bwd   *Plan
	buf   []complex128
}

func newBluestein(n int, dir Direction) *bluestein {
	m := 1
	for m < 2*n-1 {
		m *= 2
	}
	b := &bluestein{n: n, dir: dir, m: m}
	b.chirp = make([]complex128, n)
	sign := float64(dir)
	for k := 0; k < n; k++ {
		// exp(sign·iπ·k²/n); reduce k² mod 2n to keep the angle small.
		k2 := (k * k) % (2 * n)
		ang := sign * math.Pi * float64(k2) / float64(n)
		b.chirp[k] = complex(math.Cos(ang), math.Sin(ang))
	}
	b.fwd = NewPlan(m, Forward)
	b.bwd = NewPlan(m, Backward)
	bseq := make([]complex128, m)
	bseq[0] = cmplx.Conj(b.chirp[0])
	for k := 1; k < n; k++ {
		c := cmplx.Conj(b.chirp[k])
		bseq[k] = c
		bseq[m-k] = c
	}
	b.bfft = make([]complex128, m)
	b.fwd.Transform(b.bfft, bseq)
	b.buf = make([]complex128, m)
	return b
}

func (b *bluestein) clone() *bluestein {
	c := *b
	c.fwd = b.fwd.Clone()
	c.bwd = b.bwd.Clone()
	c.buf = make([]complex128, b.m)
	return &c
}

func (b *bluestein) transform(dst, src []complex128) {
	a := b.buf
	for k := 0; k < b.n; k++ {
		a[k] = src[k] * b.chirp[k]
	}
	for k := b.n; k < b.m; k++ {
		a[k] = 0
	}
	b.fwd.InPlace(a)
	for k := range a {
		a[k] *= b.bfft[k]
	}
	b.bwd.InPlace(a)
	inv := 1 / float64(b.m)
	for k := 0; k < b.n; k++ {
		dst[k] = a[k] * b.chirp[k] * complex(inv, 0)
	}
}
