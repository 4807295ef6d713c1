package layout

import "testing"

func benchGather(b *testing.B, p int) {
	const n = 64
	full := make([]complex128, n*n*n)
	slabs := make([][]complex128, p)
	for r := 0; r < p; r++ {
		g, err := NewGrid(n, n, n, p, r)
		if err != nil {
			b.Fatal(err)
		}
		slabs[r] = make([]complex128, g.OutSize())
		for i := range slabs[r] {
			slabs[r][i] = complex(float64(i), 1)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GatherYInto(full, slabs, n, n, n, p, false)
	}
}

func BenchmarkGatherY64p1(b *testing.B) { benchGather(b, 1) }
func BenchmarkGatherY64p4(b *testing.B) { benchGather(b, 4) }

// tiledGather mirrors GatherYInto with an adjustable (xb, zb) tile so the
// benchmark below can compare block shapes on this machine.
func tiledGather(full []complex128, slabs [][]complex128, n, p, XB, ZB int) {
	for r := 0; r < p; r++ {
		g, _ := NewGrid(n, n, n, p, r)
		slab := slabs[r]
		y0, yc := g.Y0(), g.YC()
		for ly := 0; ly < yc; ly++ {
			y := y0 + ly
			for xb := 0; xb < n; xb += XB {
				x1 := min(xb+XB, n)
				for zb := 0; zb < n; zb += ZB {
					z1 := min(zb+ZB, n)
					for x := xb; x < x1; x++ {
						fb := (x*n + y) * n
						for z := zb; z < z1; z++ {
							full[fb+z] = slab[g.RowXBase(ly, z)+x]
						}
					}
				}
			}
		}
	}
}

func benchTile(b *testing.B, XB, ZB int) {
	const n, p = 64, 4
	full := make([]complex128, n*n*n)
	slabs := make([][]complex128, p)
	for r := 0; r < p; r++ {
		g, _ := NewGrid(n, n, n, p, r)
		slabs[r] = make([]complex128, g.OutSize())
		for i := range slabs[r] {
			slabs[r][i] = complex(float64(i), 1)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tiledGather(full, slabs, n, p, XB, ZB)
	}
}

func BenchmarkGatherTile4x64(b *testing.B)  { benchTile(b, 4, 64) }
func BenchmarkGatherTile8x8(b *testing.B)   { benchTile(b, 8, 8) }
func BenchmarkGatherTile8x32(b *testing.B)  { benchTile(b, 8, 32) }
func BenchmarkGatherTile8x64(b *testing.B)  { benchTile(b, 8, 64) }
func BenchmarkGatherTile16x16(b *testing.B) { benchTile(b, 16, 16) }
func BenchmarkGatherTile16x64(b *testing.B) { benchTile(b, 16, 64) }
func BenchmarkGatherTile32x32(b *testing.B) { benchTile(b, 32, 32) }
func BenchmarkGatherTile64x4(b *testing.B)  { benchTile(b, 64, 4) }
