package layout

import "testing"

// unpackNaive is the pre-blocking UnpackSubtileRanks inner loop (strided
// scalar gather, one element of each yc-strided source line per sweep),
// kept as the micro-benchmark baseline for the cache-blocked kernel.
func unpackNaive(g Grid, dst, buf []complex128, zt0, ztl, y0, y1, z0, z1, s0, s1 int) {
	yc := g.YC()
	for s := s0; s < s1; s++ {
		xs := g.XD.Start(s)
		xcs := g.XD.Count(s)
		block := buf[g.RecvBlockOff(ztl, s):]
		for zl := z0; zl < z1; zl++ {
			for ly := y0; ly < y1; ly++ {
				rb := g.RowXBase(ly, zt0+zl)
				src := block[zl*xcs*yc+ly:]
				for xl := 0; xl < xcs; xl++ {
					dst[rb+xs+xl] = src[xl*yc]
				}
			}
		}
	}
}

// TestUnpackBlockedMatchesNaive pins the blocked kernel to the naive
// reference on an uneven decomposition.
func TestUnpackBlockedMatchesNaive(t *testing.T) {
	g, err := NewGrid(96, 96, 40, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	ztl := g.Nz
	buf := make([]complex128, g.RecvBufLen(ztl))
	for i := range buf {
		buf[i] = complex(float64(i), -float64(i))
	}
	want := make([]complex128, g.OutSize())
	got := make([]complex128, g.OutSize())
	unpackNaive(g, want, buf, 0, ztl, 0, g.YC(), 0, ztl, 0, g.P)
	g.UnpackSubtileRanks(got, buf, 0, ztl, 0, g.YC(), 0, ztl, 0, g.P)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("blocked unpack differs at %d", i)
		}
	}
}

// BenchmarkUnpackSubtile compares the naive strided gather against the
// cache-blocked unpack on a full tile of a 256³ four-rank decomposition.
func BenchmarkUnpackSubtile(b *testing.B) {
	g, err := NewGrid(256, 256, 256, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	ztl := 16
	buf := make([]complex128, g.RecvBufLen(ztl))
	for i := range buf {
		buf[i] = complex(float64(i%97), 1)
	}
	dst := make([]complex128, g.OutSize())
	bytes := int64(ztl * g.YC() * g.Nx * 16)
	b.Run("naive", func(b *testing.B) {
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			unpackNaive(g, dst, buf, 0, ztl, 0, g.YC(), 0, ztl, 0, g.P)
		}
	})
	b.Run("blocked", func(b *testing.B) {
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			g.UnpackSubtileRanks(dst, buf, 0, ztl, 0, g.YC(), 0, ztl, 0, g.P)
		}
	})
}
