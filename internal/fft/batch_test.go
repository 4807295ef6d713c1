package fft

import (
	"fmt"
	"testing"
)

// batchTestLengths exercises every engine path: pure powers of two
// (radix-4/2/8 stages), mixed radices, generic odd primes, single-stage
// plans, and Bluestein lengths — both below and above the row-block cutoffs
// in rowBlockFor.
var batchTestLengths = []int{
	1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 24, 25, 27, 29, 31, 32, 35, 48,
	60, 64, 81, 100, 101, 120, 127, 128, 211, 243, 256, 384, 512, 625, 640,
	1024,
}

// perRowReference runs the scalar per-row path on a copy: the same plan
// shape, one Transform per row. The batched engine must match it
// bit-for-bit (identical expression trees per element), so comparisons
// below use ==, not a tolerance.
func perRowReference(p *Plan, x []complex128, count, dist int) []complex128 {
	ref := append([]complex128(nil), x...)
	q := p.Clone()
	for r := 0; r < count; r++ {
		row := ref[r*dist : r*dist+p.n]
		q.Transform(row, row)
	}
	return ref
}

func assertBitIdentical(t *testing.T, got, want []complex128, what string) {
	t.Helper()
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d differs: got %v want %v", what, i, got[i], want[i])
			return
		}
	}
}

// TestTransformRowsMatchesPerRow is the core batched-engine property: for
// every supported plan shape, direction, row count (including 0, 1, odd
// counts, and counts straddling the block size) and row pitch,
// TransformRows on an in-place aliased buffer equals running Transform row
// by row, bit for bit.
func TestTransformRowsMatchesPerRow(t *testing.T) {
	for _, n := range batchTestLengths {
		for _, dir := range []Direction{Forward, Backward} {
			bmax := rowBlockFor(n)
			for _, count := range []int{0, 1, 2, 3, bmax - 1, bmax, bmax + 1, 2*bmax + 3} {
				if count < 0 {
					continue
				}
				for _, pad := range []int{0, 3} {
					dist := n + pad
					name := fmt.Sprintf("n=%d/%v/count=%d/dist=%d", n, dir, count, dist)
					t.Run(name, func(t *testing.T) {
						total := count*dist + pad // trailing pad so the last row fits
						if count == 0 {
							total = 8
						}
						x := randVec(total, int64(n*1000+count*10+pad))
						p := NewPlan(n, dir)
						want := perRowReference(p, x, count, dist)
						p.TransformRows(x, count, dist)
						assertBitIdentical(t, x, want, name)
					})
				}
			}
		}
	}
}

// TestBatchMatchesPerRow pins the public Batch API to the same property
// (Batch now delegates to TransformRows).
func TestBatchMatchesPerRow(t *testing.T) {
	for _, n := range []int{8, 27, 64, 101, 127, 384} {
		x := randVec(20*n, int64(n))
		p := NewPlan(n, Forward)
		want := perRowReference(p, x, 20, n)
		p.Batch(x, 20, n)
		assertBitIdentical(t, x, want, fmt.Sprintf("Batch n=%d", n))
	}
}

// stridedReference gathers a strided line, transforms it with a fresh
// scalar plan, and scatters it back — the pre-engine Strided semantics.
func stridedReference(p *Plan, x []complex128, off, stride int) []complex128 {
	ref := append([]complex128(nil), x...)
	q := p.Clone()
	row := make([]complex128, p.n)
	for i := 0; i < p.n; i++ {
		row[i] = ref[off+i*stride]
	}
	q.Transform(row, row)
	for i := 0; i < p.n; i++ {
		ref[off+i*stride] = row[i]
	}
	return ref
}

// TestStridedMatchesGather verifies the stride-aware head/tail stages
// against the gather-transform-scatter reference, bit for bit, including
// stride 1, the offsets used by fft3d, and non-unit leftover elements
// between strided lines.
func TestStridedMatchesGather(t *testing.T) {
	for _, n := range batchTestLengths {
		for _, stride := range []int{1, 2, 3, 7, 16} {
			for _, off := range []int{0, 1, 5} {
				name := fmt.Sprintf("n=%d/stride=%d/off=%d", n, stride, off)
				t.Run(name, func(t *testing.T) {
					x := randVec(off+(n-1)*stride+1+4, int64(n*100+stride*10+off))
					p := NewPlan(n, Forward)
					want := stridedReference(p, x, off, stride)
					p.Strided(x, off, stride)
					assertBitIdentical(t, x, want, name)
				})
			}
		}
	}
}

// TestStridedRowsMatchesPerLine checks the batched strided path (used by
// FFTy/FFTx over sub-tile planes) against per-line Strided: a ny×nz-style
// plane where line r starts at off+r*rowOff and steps by stride.
func TestStridedRowsMatchesPerLine(t *testing.T) {
	for _, n := range []int{4, 8, 12, 27, 32, 64, 101, 127, 128, 243, 256} {
		for _, cfg := range []struct{ stride, rowOff, count int }{
			{4, 1, 4},     // transposed plane: lines interleaved element-wise
			{7, 1, 7},     // non-power-of-two pitch
			{3, 3 * n, 5}, // disjoint strided lines
			{16, 2, 8},    // partial interleave: 8 lines in a 16-wide period
		} {
			name := fmt.Sprintf("n=%d/stride=%d/rowOff=%d/count=%d", n, cfg.stride, cfg.rowOff, cfg.count)
			t.Run(name, func(t *testing.T) {
				need := (cfg.count-1)*cfg.rowOff + (n-1)*cfg.stride + 1
				x := randVec(need+3, int64(n)*7+int64(cfg.stride))
				p := NewPlan(n, Forward)
				want := append([]complex128(nil), x...)
				q := p.Clone()
				for r := 0; r < cfg.count; r++ {
					// reference: per-line gather/transform/scatter
					row := make([]complex128, n)
					for i := 0; i < n; i++ {
						row[i] = want[r*cfg.rowOff+i*cfg.stride]
					}
					q.Transform(row, row)
					for i := 0; i < n; i++ {
						want[r*cfg.rowOff+i*cfg.stride] = row[i]
					}
				}
				p.StridedRows(x, 0, cfg.stride, cfg.count, cfg.rowOff)
				assertBitIdentical(t, x, want, name)
			})
		}
	}
}

// TestStridedRowsEdgeCases covers count==0 (no-op) and count==1
// (equivalent to Strided).
func TestStridedRowsEdgeCases(t *testing.T) {
	n := 64
	p := NewPlan(n, Forward)
	x := randVec(4*n, 11)
	orig := append([]complex128(nil), x...)
	p.StridedRows(x, 0, 4, 0, 1)
	assertBitIdentical(t, x, orig, "count=0 must not touch memory")

	want := stridedReference(p, x, 2, 4)
	p.StridedRows(x, 2, 4, 1, 0)
	assertBitIdentical(t, x, want, "count=1 equals Strided")
}

// TestTransformRowsDistPanics pins the dist validation moved from Batch.
func TestTransformRowsDistPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("TransformRows with dist < n must panic")
		}
	}()
	p := NewPlan(8, Forward)
	p.TransformRows(make([]complex128, 64), 8, 4)
}

// TestBatchedPathsZeroAlloc extends the steady-state allocation gate to
// the batched engine: after one warm-up call (which sizes the interleaved
// ping-pong blocks), TransformRows and StridedRows must run
// allocation-free.
func TestBatchedPathsZeroAlloc(t *testing.T) {
	for _, n := range []int{64, 100, 128, 256} {
		p := NewPlan(n, Forward)
		x := make([]complex128, 32*n)
		for i := range x {
			x[i] = complex(float64(i%7), float64(i%5))
		}
		p.TransformRows(x, 32, n) // warm-up: allocates batchA/batchB
		if a := testing.AllocsPerRun(10, func() {
			p.TransformRows(x, 32, n)
		}); a > 0 {
			t.Errorf("n=%d: TransformRows allocates %v per run", n, a)
		}
		p.StridedRows(x, 0, 32, 32, 1) // column-major warm-up
		if a := testing.AllocsPerRun(10, func() {
			p.StridedRows(x, 0, 32, 32, 1)
		}); a > 0 {
			t.Errorf("n=%d: StridedRows allocates %v per run", n, a)
		}
	}
}

// TestRowBlockForBounds pins the block-size policy: between 4 and 16 rows,
// shrinking as n grows so both ping-pong blocks stay cache-resident.
func TestRowBlockForBounds(t *testing.T) {
	for _, n := range batchTestLengths {
		b := rowBlockFor(n)
		if b < 4 || b > 16 {
			t.Errorf("rowBlockFor(%d) = %d, want within [4,16]", n, b)
		}
	}
	if rowBlockFor(256) < rowBlockFor(2048) {
		t.Error("block size must not grow with n")
	}
}

// TestTransformRowsToBitIdentical: the out-of-place form leaves in dst the
// bits TransformRows leaves on a copy of src — over multi-stage, single-
// stage, length-1 and Bluestein (97) plans, row counts on both sides of
// rowBlockFor and padded rows — whether dst is src or a distinct slice, and
// a distinct src is unchanged bit for bit.
func TestTransformRowsToBitIdentical(t *testing.T) {
	for _, n := range []int{1, 2, 5, 12, 64, 97, 128} {
		for _, dir := range []Direction{Forward, Backward} {
			for _, count := range []int{0, 1, 3, 17, 40} {
				for _, dist := range []int{n, n + 3} {
					name := fmt.Sprintf("n=%d/%v/count=%d/dist=%d", n, dir, count, dist)
					p := NewPlan(n, dir)
					src := make([]complex128, count*dist)
					for i := range src {
						src[i] = complex(float64(i%13)-6.25, float64(i%7)*0.5-1)
					}
					want := append([]complex128(nil), src...)
					p.Clone().TransformRows(want, count, dist)

					orig := append([]complex128(nil), src...)
					dst := append([]complex128(nil), src...) // row padding carries over
					p.TransformRowsTo(dst, src, count, dist)
					assertBitIdentical(t, dst, want, name+" distinct")
					assertBitIdentical(t, src, orig, name+" src after a distinct dst")

					p.TransformRowsTo(src, src, count, dist)
					assertBitIdentical(t, src, want, name+" dst == src")
				}
			}
		}
	}
}

// TestStridedRowsToBitIdentical: reading and writing with independent
// (rowOff, stride) pairs leaves the bits of TransformRows on the gathered
// rows followed by an explicit index copy, writes nothing else, and leaves
// src unchanged. The pairs are the slab FFTz's: rows read contiguously and
// written transposed, one column per row, into the fast layout (stride m,
// the row count) and the standard layout (stride 3m, three x-planes
// interleaved), and the inverse that reads the columns back as rows.
func TestStridedRowsToBitIdentical(t *testing.T) {
	for _, n := range []int{1, 2, 5, 12, 64, 97, 128} {
		for _, dir := range []Direction{Forward, Backward} {
			for _, count := range []int{0, 1, 3, 17, 40} {
				m := max(count, 1)
				for _, c := range []struct {
					name                 string
					srcRowOff, srcStride int
					dstRowOff, dstStride int
				}{
					{"fast", n, 1, 1, m},
					{"standard", n, 1, 1, 3 * m},
					{"inverse", 1, m, n, 1},
				} {
					name := fmt.Sprintf("n=%d/%v/count=%d/%s", n, dir, count, c.name)
					extent := func(rowOff, stride int) int { return (m-1)*rowOff + (n-1)*stride + 3 }
					src := randVec(extent(c.srcRowOff, c.srcStride), int64(n*100+count))
					dst := randVec(extent(c.dstRowOff, c.dstStride), int64(n*100+count+1))
					p := NewPlan(n, dir)

					rows := make([]complex128, count*n)
					for r := 0; r < count; r++ {
						for i := 0; i < n; i++ {
							rows[r*n+i] = src[r*c.srcRowOff+i*c.srcStride]
						}
					}
					p.Clone().TransformRows(rows, count, n)
					want := append([]complex128(nil), dst...)
					for r := 0; r < count; r++ {
						for i := 0; i < n; i++ {
							want[r*c.dstRowOff+i*c.dstStride] = rows[r*n+i]
						}
					}

					orig := append([]complex128(nil), src...)
					p.StridedRowsTo(dst, src, count, c.srcRowOff, c.srcStride, c.dstRowOff, c.dstStride)
					assertBitIdentical(t, dst, want, name)
					assertBitIdentical(t, src, orig, name+" src")
				}
			}
		}
	}
}
