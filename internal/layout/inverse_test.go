package layout

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestRepackInvertsUnpackSubtiled: Repack is the inverse of Unpack, and
// Scatter of Pack, each pair over two different sub-tilings of one tile.
func TestRepackInvertsUnpackSubtiled(t *testing.T) {
	g, err := NewGrid(10, 9, 8, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	zt0, ztl := 2, 4
	buf := randSlab(g.RecvBufLen(ztl), 1)
	out := make([]complex128, g.OutSize())
	SubTiles(ztl, 3, func(zlo, zhi int) {
		SubTiles(g.YC(), 2, func(ylo, yhi int) {
			g.UnpackSubtile(out, buf, zt0, ztl, ylo, yhi, zlo, zhi)
		})
	})
	buf2 := make([]complex128, g.RecvBufLen(ztl))
	SubTiles(ztl, 2, func(zlo, zhi int) {
		SubTiles(g.YC(), 3, func(ylo, yhi int) {
			g.RepackSubtile(buf2, out, zt0, ztl, ylo, yhi, zlo, zhi)
		})
	})
	for i := range buf {
		if buf[i] != buf2[i] {
			t.Fatalf("repack mismatch at %d", i)
		}
	}

	sbuf := randSlab(g.SendBufLen(ztl), 2)
	work := make([]complex128, g.InSize())
	SubTiles(ztl, 3, func(zlo, zhi int) {
		SubTiles(g.XC(), 2, func(xlo, xhi int) {
			g.ScatterSubtile(work, sbuf, zt0, ztl, zlo, zhi, xlo, xhi)
		})
	})
	sbuf2 := make([]complex128, g.SendBufLen(ztl))
	SubTiles(ztl, 2, func(zlo, zhi int) {
		SubTiles(g.XC(), 3, func(xlo, xhi int) {
			g.PackSubtile(sbuf2, work, zt0, ztl, xlo, xhi, zlo, zhi)
		})
	})
	for i := range sbuf {
		if sbuf[i] != sbuf2[i] {
			t.Fatalf("pack mismatch at %d", i)
		}
	}
}

// TestScatterInvertsPackFastPath: ScatterSubtile undoes a whole-tile pack
// made the way the engines' worker pool makes it (one PackSubtileRanks call
// per destination rank), and touches nothing outside the tile.
func TestScatterInvertsPackFastPath(t *testing.T) {
	g, err := NewGrid(8, 8, 6, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	zt0, ztl := 3, 3
	work := randSlab(g.InSize(), 2)
	buf := make([]complex128, g.SendBufLen(ztl))
	for r := g.P - 1; r >= 0; r-- {
		g.PackSubtileRanks(buf, work, zt0, ztl, 0, g.XC(), 0, ztl, r, r+1)
	}
	back := make([]complex128, g.InSize())
	g.ScatterSubtile(back, buf, zt0, ztl, 0, ztl, 0, g.XC())
	for z := 0; z < g.Nz; z++ {
		inTile := z >= zt0 && z < zt0+ztl
		for lx := 0; lx < g.XC(); lx++ {
			rb := g.RowYBase(z, lx)
			for y := 0; y < g.Ny; y++ {
				want := complex128(0)
				if inTile {
					want = work[rb+y]
				}
				if back[rb+y] != want {
					t.Fatalf("scatter mismatch z=%d x=%d y=%d", z, lx, y)
				}
			}
		}
	}
}

func TestQuickInverseTransposes(t *testing.T) {
	f := func(a, b, c uint8, seed int64) bool {
		dims := []int{1, 2, 3, 5, 8, 33, 40}
		xc := dims[int(a)%len(dims)]
		ny := dims[int(b)%len(dims)]
		nz := dims[int(c)%len(dims)]
		src := randSlab(xc*ny*nz, seed)
		tmp := make([]complex128, len(src))
		back := make([]complex128, len(src))
		TransposeZXY(tmp, src, xc, ny, nz)
		TransposeZXYInv(back, tmp, xc, ny, nz)
		for i := range src {
			if back[i] != src[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(44))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestAssemblePanicsOnBadLengths(t *testing.T) {
	g, _ := NewGrid(4, 4, 4, 2, 0)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("ScatterX", func() { ScatterX(make([]complex128, 3), g) })
	mustPanic("ScatterY", func() { ScatterY(make([]complex128, 3), g) })
	mustPanic("GatherY short slab", func() {
		GatherY([][]complex128{{}, {}}, 4, 4, 4, 2)
	})
	mustPanic("transpose short", func() {
		TransposeZXY(make([]complex128, 3), make([]complex128, 3), 2, 2, 2)
	})
	mustPanic("inv transpose short", func() {
		TransposeZXYInv(make([]complex128, 3), make([]complex128, 3), 2, 2, 2)
	})
	mustPanic("GatherYInto fast", func() {
		GatherYInto(make([]complex128, 64), make([][]complex128, 2), 4, 4, 4, 2, true)
	})
}
