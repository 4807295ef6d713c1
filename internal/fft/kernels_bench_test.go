package fft

import (
	"fmt"
	"testing"
)

// BenchmarkKernels compares 1-D kernel throughput between the per-row
// scalar path (one Transform per row — the pre-engine behavior, still the
// fallback for Bluestein and single-stage plans) and the batched
// multi-row engine, for both contiguous row batches and strided lines.
// Nothing gates on the ratios; the benchmark ledger's fft.rows_ns_per_elem
// row times the batched contiguous path.
func BenchmarkKernels(b *testing.B) {
	for _, n := range []int{128, 256, 512} {
		rows := 64
		b.Run(fmt.Sprintf("rows/perRow/n=%d", n), func(b *testing.B) {
			p := NewPlan(n, Forward)
			x := randVec(rows*n, int64(n))
			b.SetBytes(int64(rows * n * 16))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r := 0; r < rows; r++ {
					row := x[r*n : r*n+n]
					p.Transform(row, row)
				}
			}
		})
		b.Run(fmt.Sprintf("rows/batched/n=%d", n), func(b *testing.B) {
			p := NewPlan(n, Forward)
			x := randVec(rows*n, int64(n))
			p.TransformRows(x, rows, n) // warm-up allocation
			b.SetBytes(int64(rows * n * 16))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.TransformRows(x, rows, n)
			}
		})
		// Strided lines: a transposed n×lines plane, line r at x[r+i*lines],
		// the access pattern of FFTy/FFTx over sub-tiles.
		lines := 32
		b.Run(fmt.Sprintf("strided/gather/n=%d", n), func(b *testing.B) {
			p := NewPlan(n, Forward)
			x := randVec(n*lines, int64(n)+1)
			row := make([]complex128, n)
			b.SetBytes(int64(lines * n * 16))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r := 0; r < lines; r++ {
					// pre-engine Strided: gather, transform, scatter
					for j := 0; j < n; j++ {
						row[j] = x[r+j*lines]
					}
					p.Transform(row, row)
					for j := 0; j < n; j++ {
						x[r+j*lines] = row[j]
					}
				}
			}
		})
		b.Run(fmt.Sprintf("strided/batched/n=%d", n), func(b *testing.B) {
			p := NewPlan(n, Forward)
			x := randVec(n*lines, int64(n)+1)
			p.StridedRows(x, 0, lines, lines, 1) // warm-up allocation
			b.SetBytes(int64(lines * n * 16))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.StridedRows(x, 0, lines, lines, 1)
			}
		})
	}
}
