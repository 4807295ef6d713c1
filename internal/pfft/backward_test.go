package pfft

import (
	"fmt"
	"sync"
	"testing"

	"offt/internal/fft"
	"offt/internal/layout"
	"offt/internal/mpi/mem"
)

// roundTrip pushes a full array through the distributed forward transform
// of variant v, then the distributed backward transform of the same
// variant, normalizes, and returns the reassembled array.
func roundTrip(t *testing.T, full []complex128, nx, ny, nz, p int, v Variant, prm Params) []complex128 {
	t.Helper()
	w := mem.NewWorld(p)
	ins := make([][]complex128, p)
	var mu sync.Mutex
	err := w.Run(func(c *mem.Comm) {
		g, err := layout.NewGrid(nx, ny, nz, p, c.Rank())
		if err != nil {
			panic(err)
		}
		slab := layout.ScatterX(full, g)
		out, _, err := Forward3D(c, g, slab, v, prm, fft.Estimate)
		if err != nil {
			panic(err)
		}
		back, _, err := Backward3D(c, g, out, v, prm, fft.Estimate)
		if err != nil {
			panic(err)
		}
		fft.ScaleBy(back, 1/float64(nx*ny*nz))
		mu.Lock()
		ins[c.Rank()] = back
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("world failed: %v", err)
	}
	return layout.GatherX(ins, nx, ny, nz, p)
}

func TestBackwardRoundTrip(t *testing.T) {
	cases := []struct {
		nx, ny, nz, p int
		v             Variant
	}{
		{8, 8, 8, 2, NEW},
		{8, 8, 8, 2, NEW0}, // blocking
		{8, 8, 8, 2, Baseline},
		{12, 8, 10, 2, NEW},  // Nx != Ny
		{9, 10, 8, 3, NEW},   // non-divisible
		{16, 16, 12, 4, NEW}, // multiple tiles and windows
		{8, 8, 8, 1, NEW},    // single rank
	}
	for _, c := range cases {
		name := fmt.Sprintf("%dx%dx%d-p%d-%v", c.nx, c.ny, c.nz, c.p, c.v)
		t.Run(name, func(t *testing.T) {
			full := randCube(c.nx, c.ny, c.nz, 21)
			g0, err := layout.NewGrid(c.nx, c.ny, c.nz, c.p, 0)
			if err != nil {
				t.Fatal(err)
			}
			got := roundTrip(t, full, c.nx, c.ny, c.nz, c.p, c.v, DefaultParams(g0))
			if e := maxErr(got, full); e > tol {
				t.Errorf("roundtrip error %g", e)
			}
		})
	}
}

func TestBackwardMatchesSerialInverse(t *testing.T) {
	// Backward of arbitrary frequency data must equal the serial inverse,
	// not just invert our own forward.
	nx, ny, nz, p := 12, 12, 8, 3
	freq := randCube(nx, ny, nz, 33)
	want := append([]complex128(nil), freq...)
	fft.NewPlan3D(nx, ny, nz, fft.Backward).Transform(want)

	g0, _ := layout.NewGrid(nx, ny, nz, p, 0)
	prm := DefaultParams(g0)
	w := mem.NewWorld(p)
	ins := make([][]complex128, p)
	err := w.Run(func(c *mem.Comm) {
		g, err := layout.NewGrid(nx, ny, nz, p, c.Rank())
		if err != nil {
			panic(err)
		}
		slab := layout.ScatterY(freq, g)
		back, _, err := Backward3D(c, g, slab, NEW, prm, fft.Estimate)
		if err != nil {
			panic(err)
		}
		ins[c.Rank()] = back
	})
	if err != nil {
		t.Fatal(err)
	}
	got := layout.GatherX(ins, nx, ny, nz, p)
	if e := maxErr(got, want); e > tol {
		t.Errorf("backward vs serial inverse: error %g", e)
	}
}

func TestBackwardRejectsTH(t *testing.T) {
	p := 1
	w := mem.NewWorld(p)
	err := w.Run(func(c *mem.Comm) {
		g, _ := layout.NewGrid(8, 8, 8, 1, 0)
		slab := make([]complex128, g.OutSize())
		if _, _, err := Backward3D(c, g, slab, TH, DefaultParams(g), fft.Estimate); err == nil {
			t.Error("expected error for TH backward")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBackwardValidatesInput(t *testing.T) {
	p := 1
	w := mem.NewWorld(p)
	err := w.Run(func(c *mem.Comm) {
		g, _ := layout.NewGrid(8, 8, 8, 1, 0)
		if _, _, err := Backward3D(c, g, make([]complex128, 3), NEW, DefaultParams(g), fft.Estimate); err == nil {
			t.Error("expected slab-length error")
		}
		if _, _, err := Backward3D(c, g, make([]complex128, g.OutSize()), NEW, Params{T: 0}, fft.Estimate); err == nil {
			t.Error("expected params validation error")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInverseLayoutKernels(t *testing.T) {
	// Repack must be the exact inverse of Unpack, and Scatter of Pack.
	g, err := layout.NewGrid(8, 10, 6, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	zt0, ztl := 2, 3
	// Unpack→Repack: random buffer → slab → buffer.
	buf := randCube(1, 1, g.RecvBufLen(ztl), 5)
	out := make([]complex128, g.OutSize())
	g.UnpackSubtile(out, buf, zt0, ztl, 0, g.YC(), 0, ztl)
	buf2 := make([]complex128, g.RecvBufLen(ztl))
	g.RepackSubtile(buf2, out, zt0, ztl, 0, g.YC(), 0, ztl)
	for i := range buf {
		if buf[i] != buf2[i] {
			t.Fatalf("repack mismatch at %d", i)
		}
	}
	// Pack→Scatter.
	work := randCube(1, 1, g.InSize(), 6)
	sbuf := make([]complex128, g.SendBufLen(ztl))
	g.PackSubtile(sbuf, work, zt0, ztl, 0, g.XC(), 0, ztl)
	work2 := make([]complex128, g.InSize())
	g.ScatterSubtile(work2, sbuf, zt0, ztl, 0, ztl, 0, g.XC())
	// Only the tile's region is defined in work2; compare there.
	for z := zt0; z < zt0+ztl; z++ {
		for lx := 0; lx < g.XC(); lx++ {
			rb := g.RowYBase(z, lx)
			for y := 0; y < g.Ny; y++ {
				if work2[rb+y] != work[rb+y] {
					t.Fatalf("scatter mismatch at z=%d x=%d y=%d", z, lx, y)
				}
			}
		}
	}
}

func TestInverseTransposes(t *testing.T) {
	xc, ny, nz := 3, 37, 34 // spans cache blocks
	src := randCube(1, 1, xc*ny*nz, 7)
	tmp := make([]complex128, len(src))
	back := make([]complex128, len(src))
	layout.TransposeZXY(tmp, src, xc, ny, nz)
	layout.TransposeZXYInv(back, tmp, xc, ny, nz)
	for i := range src {
		if back[i] != src[i] {
			t.Fatal("TransposeZXYInv is not the inverse of TransposeZXY")
		}
	}
}
