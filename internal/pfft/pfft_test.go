package pfft

import (
	"fmt"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"offt/internal/fft"
	"offt/internal/layout"
	"offt/internal/mpi/mem"
)

func randCube(nx, ny, nz int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]complex128, nx*ny*nz)
	for i := range v {
		v[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return v
}

func maxErr(a, b []complex128) float64 {
	var norm float64 = 1
	for i := range a {
		if m := cmplx.Abs(a[i]); m > norm {
			norm = m
		}
	}
	var worst float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d/norm > worst {
			worst = d / norm
		}
	}
	return worst
}

// runDistributed executes a distributed forward FFT of `full` over p ranks
// with the given variant/params and returns the reassembled full result in
// x-y-z layout.
func runDistributed(t *testing.T, full []complex128, nx, ny, nz, p int, v Variant, prm Params, th THParams) []complex128 {
	t.Helper()
	if v == TH || v == TH0 {
		prm = Params{T: th.T, W: th.W, Fy: th.F}
	}
	w := mem.NewWorld(p)
	outs := make([][]complex128, p)
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
		mu.Lock()
		outs[c.Rank()] = out
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("world failed: %v", err)
	}
	g0, _ := layout.NewGrid(nx, ny, nz, p, 0)
	return layout.GatherY(outs, nx, ny, nz, p, OutputFast(v, g0))
}

func serialReference(full []complex128, nx, ny, nz int) []complex128 {
	ref := append([]complex128(nil), full...)
	fft.NewPlan3D(nx, ny, nz, fft.Forward).Transform(ref)
	return ref
}

const tol = 1e-9

func TestAllVariantsMatchSerial(t *testing.T) {
	type cse struct {
		nx, ny, nz, p int
	}
	cases := []cse{
		{8, 8, 8, 2},
		{16, 16, 16, 4},
		{12, 8, 10, 2},  // Nx != Ny: fast path disabled
		{9, 10, 8, 3},   // non-divisible by p
		{16, 16, 6, 4},  // short z
		{8, 8, 8, 1},    // single rank
		{10, 10, 10, 5}, // odd lengths with fast path
	}
	for _, c := range cases {
		full := randCube(c.nx, c.ny, c.nz, 7)
		want := serialReference(full, c.nx, c.ny, c.nz)
		g0, err := layout.NewGrid(c.nx, c.ny, c.nz, c.p, 0)
		if err != nil {
			t.Fatal(err)
		}
		prm := DefaultParams(g0)
		th := DefaultTHParams(g0)
		for _, v := range Variants() {
			name := fmt.Sprintf("%dx%dx%d-p%d-%v", c.nx, c.ny, c.nz, c.p, v)
			t.Run(name, func(t *testing.T) {
				got := runDistributed(t, full, c.nx, c.ny, c.nz, c.p, v, prm, th)
				if e := maxErr(got, want); e > tol {
					t.Errorf("max relative error %g", e)
				}
			})
		}
	}
}

func TestQuickRandomParamsMatchSerial(t *testing.T) {
	nx, ny, nz, p := 12, 12, 10, 3
	full := randCube(nx, ny, nz, 11)
	want := serialReference(full, nx, ny, nz)
	g0, _ := layout.NewGrid(nx, ny, nz, p, 0)

	f := func(tv, wv, pxv, pzv, uyv, uzv, fyv, fpv, fuv, fxv uint8) bool {
		prm := Params{
			T:  1 + int(tv)%nz,
			Px: 1 + int(pxv)%g0.XC(),
			Uy: 1 + int(uyv)%g0.YC(),
			Fy: int(fyv) % 6,
			Fp: int(fpv) % 6,
			Fu: int(fuv) % 6,
			Fx: int(fxv) % 6,
		}
		prm.Pz = 1 + int(pzv)%prm.T
		prm.Uz = 1 + int(uzv)%prm.T
		numTiles := (nz + prm.T - 1) / prm.T
		prm.W = 1 + int(wv)%min2(4, numTiles)
		if err := prm.Validate(g0); err != nil {
			t.Fatalf("generated invalid params %v: %v", prm, err)
		}
		got := runDistributed(t, full, nx, ny, nz, p, NEW, prm, THParams{})
		return maxErr(got, want) <= tol
	}
	cfg := &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestFastPathUsedOnlyWhenSquare(t *testing.T) {
	gSquare, _ := layout.NewGrid(8, 8, 4, 2, 0)
	gRect, _ := layout.NewGrid(8, 10, 4, 2, 0)
	if !OutputFast(NEW, gSquare) {
		t.Error("fast path should apply for Nx==Ny under NEW")
	}
	if OutputFast(NEW, gRect) {
		t.Error("fast path must not apply when Nx!=Ny")
	}
	if OutputFast(TH, gSquare) || OutputFast(Baseline, gSquare) {
		t.Error("fast path only applies to NEW/NEW-0")
	}
}

func TestParamsValidate(t *testing.T) {
	g, _ := layout.NewGrid(16, 16, 8, 4, 0)
	good := DefaultParams(g)
	if err := good.Validate(g); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := []Params{
		{T: 0, W: 1, Px: 1, Pz: 1, Uy: 1, Uz: 1},
		{T: 9, W: 1, Px: 1, Pz: 1, Uy: 1, Uz: 1}, // T > Nz
		{T: 4, W: 0, Px: 1, Pz: 1, Uy: 1, Uz: 1}, // W < 1
		{T: 4, W: 3, Px: 1, Pz: 1, Uy: 1, Uz: 1}, // W > ⌈Nz/T⌉ = 2
		{T: 4, W: 1, Px: 5, Pz: 1, Uy: 1, Uz: 1}, // Px > xc
		{T: 4, W: 1, Px: 1, Pz: 5, Uy: 1, Uz: 1}, // Pz > T
		{T: 4, W: 1, Px: 1, Pz: 1, Uy: 5, Uz: 1}, // Uy > yc
		{T: 4, W: 1, Px: 1, Pz: 1, Uy: 1, Uz: 5}, // Uz > T
		{T: 4, W: 1, Px: 1, Pz: 1, Uy: 1, Uz: 1, Fy: -1},
	}
	for i, p := range bad {
		if err := p.Validate(g); err == nil {
			t.Errorf("case %d (%v): expected validation error", i, p)
		}
	}
}

func TestDefaultParamsAlwaysValid(t *testing.T) {
	f := func(a, b, c, pp uint8) bool {
		dims := []int{4, 6, 8, 12, 16, 24, 32, 100}
		nx := dims[int(a)%len(dims)]
		ny := dims[int(b)%len(dims)]
		nz := dims[int(c)%len(dims)]
		p := 1 + int(pp)%4
		if nx < p || ny < p {
			return true
		}
		g, err := layout.NewGrid(nx, ny, nz, p, 0)
		if err != nil {
			return false
		}
		return DefaultParams(g).Validate(g) == nil && DefaultTHParams(g).Validate(g) == nil
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestBreakdownRecorded: every step a variant runs is timed. On the real
// engine NEW's FFTz writes the post-transpose layout itself, so its
// Transpose reads 0; TH keeps its separate, plain rearrangement.
func TestBreakdownRecorded(t *testing.T) {
	for _, v := range []Variant{NEW, TH} {
		breakdownRecorded(t, v)
	}
}

func breakdownRecorded(t *testing.T, v Variant) {
	nx := 16
	p := 2
	full := randCube(nx, nx, nx, 3)
	w := mem.NewWorld(p)
	bs := make([]Breakdown, p)
	err := w.Run(func(c *mem.Comm) {
		g, _ := layout.NewGrid(nx, nx, nx, p, c.Rank())
		slab := layout.ScatterX(full, g)
		_, b, err := Forward3D(c, g, slab, v, DefaultParams(g), fft.Estimate)
		if err != nil {
			panic(err)
		}
		bs[c.Rank()] = b
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, b := range bs {
		if b.Total <= 0 {
			t.Errorf("%v rank %d: zero total", v, r)
		}
		if b.FFTz <= 0 || b.FFTy <= 0 || b.FFTx <= 0 || b.Pack <= 0 || b.Unpack <= 0 {
			t.Errorf("%v rank %d: missing step times: %v", v, r, b)
		}
		if (b.Transpose > 0) != (v == TH) {
			t.Errorf("%v rank %d: Transpose %d, want it only on TH", v, r, b.Transpose)
		}
		if b.Sum() > b.Total*105/100 {
			t.Errorf("rank %d: step sum %d exceeds total %d", r, b.Sum(), b.Total)
		}
		if b.Overlappable() != b.FFTy+b.Pack+b.Unpack+b.FFTx {
			t.Errorf("rank %d: Overlappable inconsistent", r)
		}
	}
}

func TestInvalidParamsRejectedByRun(t *testing.T) {
	p := 2
	nx := 8
	w := mem.NewWorld(p)
	got := make([]error, p)
	err := w.Run(func(c *mem.Comm) {
		g, _ := layout.NewGrid(nx, nx, nx, p, c.Rank())
		slab := make([]complex128, g.InSize())
		e, err := NewRealEngine(g, c, slab, fft.Forward, fft.Estimate)
		if err != nil {
			panic(err)
		}
		_, got[c.Rank()] = Run(e, NEW, Params{T: 0})
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, e := range got {
		if e == nil {
			t.Errorf("rank %d: expected validation error", r)
		}
	}
}

func TestRealEngineValidation(t *testing.T) {
	p := 1
	w := mem.NewWorld(p)
	err := w.Run(func(c *mem.Comm) {
		g, _ := layout.NewGrid(8, 8, 8, 1, 0)
		if _, err := NewRealEngine(g, c, make([]complex128, 7), fft.Forward, fft.Estimate); err == nil {
			t.Error("expected slab-length error")
		}
		g2, _ := layout.NewGrid(8, 8, 8, 2, 1) // mismatched rank
		if _, err := NewRealEngine(g2, c, make([]complex128, g2.InSize()), fft.Forward, fft.Estimate); err == nil {
			t.Error("expected comm/grid mismatch error")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVariantStrings(t *testing.T) {
	want := map[Variant]string{Baseline: "FFTW", NEW: "NEW", NEW0: "NEW-0", TH: "TH", TH0: "TH-0"}
	for v, s := range want {
		if v.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(v), v.String(), s)
		}
	}
	if Variant(99).String() == "" {
		t.Error("unknown variant should still render")
	}
}

func TestTestsDue(t *testing.T) {
	// Spread 5 tests over 3 units: totals must be exact and near-even.
	total := 0
	for u := 0; u < 3; u++ {
		n := testsDue(5, u, 3)
		if n < 1 || n > 2 {
			t.Errorf("unit %d got %d tests", u, n)
		}
		total += n
	}
	if total != 5 {
		t.Errorf("total tests %d, want 5", total)
	}
	if testsDue(3, 0, 0) != 0 {
		t.Error("zero units must yield zero tests")
	}
}
