package model

import (
	"testing"

	"offt/internal/layout"
	"offt/internal/machine"
	"offt/internal/pfft"
)

func gridFor(t *testing.T, p, n int) layout.Grid {
	t.Helper()
	g, err := layout.NewGrid(n, n, n, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSimulateDeterministic(t *testing.T) {
	m := machine.UMDCluster()
	g := gridFor(t, 4, 32)
	spec := Spec{Variant: pfft.NEW, Params: pfft.DefaultParams(g)}
	a, err := SimulateCube(m, 4, 32, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateCube(m, 4, 32, spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.MaxTotal != b.MaxTotal || a.Avg != b.Avg {
		t.Errorf("nondeterministic simulation: %v vs %v", a.MaxTotal, b.MaxTotal)
	}
}

func TestSimulateRejectsBadShape(t *testing.T) {
	if _, err := SimulateCube(machine.Laptop(), 8, 4, Spec{Variant: pfft.Baseline}); err == nil {
		t.Error("expected error for N < p")
	}
}

func TestSimulateRejectsBadParams(t *testing.T) {
	if _, err := SimulateCube(machine.Laptop(), 2, 16, Spec{Variant: pfft.NEW, Params: pfft.Params{T: 0}}); err == nil {
		t.Error("expected validation error")
	}
}

func TestOverlapBeatsNoOverlap(t *testing.T) {
	// The headline phenomenon: NEW < NEW-0 ≈ FFTW on a comm-heavy machine.
	m := machine.UMDCluster()
	p, n := 8, 64
	g := gridFor(t, p, n)
	prm := pfft.DefaultParams(g)
	newRes, err := SimulateCube(m, p, n, Spec{Variant: pfft.NEW, Params: prm})
	if err != nil {
		t.Fatal(err)
	}
	new0, err := SimulateCube(m, p, n, Spec{Variant: pfft.NEW0, Params: prm})
	if err != nil {
		t.Fatal(err)
	}
	if !(newRes.MaxTotal < new0.MaxTotal) {
		t.Errorf("NEW (%d) not faster than NEW-0 (%d)", newRes.MaxTotal, new0.MaxTotal)
	}
	// Fig. 8: the overlap collapses Wait time.
	if !(newRes.Avg.Wait < new0.Avg.Wait/2) {
		t.Errorf("NEW Wait %d should be far below NEW-0 Wait %d", newRes.Avg.Wait, new0.Avg.Wait)
	}
}

func TestTHWaitStaysLong(t *testing.T) {
	// TH overlaps only FFTy+Pack, so its Wait stays much longer than NEW's
	// (Fig. 8 discussion).
	m := machine.UMDCluster()
	p, n := 8, 64
	g := gridFor(t, p, n)
	newRes, err := SimulateCube(m, p, n, Spec{Variant: pfft.NEW, Params: pfft.DefaultParams(g)})
	if err != nil {
		t.Fatal(err)
	}
	thRes, err := SimulateCube(m, p, n, Spec{Variant: pfft.TH, TH: pfft.DefaultTHParams(g)})
	if err != nil {
		t.Fatal(err)
	}
	if !(newRes.Avg.Wait < thRes.Avg.Wait) {
		t.Errorf("NEW Wait %d should be below TH Wait %d", newRes.Avg.Wait, thRes.Avg.Wait)
	}
}

func TestCacheFactorSweetSpot(t *testing.T) {
	m := machine.UMDCluster()
	g := gridFor(t, 1, 8)
	e := NewEngine(m, g, nil)
	tiny := e.copyCost(8) * 1024 / 8 // per-element cost scaled: 1024 subtiles of 8 elems... compare totals below instead
	_ = tiny
	// Total cost of copying 64K elements in sub-tiles of various sizes:
	total := func(sub int) int64 {
		n := 65536
		var sum int64
		for done := 0; done < n; done += sub {
			c := sub
			if n-done < c {
				c = n - done
			}
			sum += e.copyCost(c)
		}
		return sum
	}
	tinyT := total(16)      // huge loop overhead
	midT := total(8192)     // ~128 KB: fits in half the 512 KB L2
	hugeT := total(1 << 20) // far beyond cache
	if !(midT < tinyT) {
		t.Errorf("mid sub-tile (%d) should beat tiny (%d)", midT, tinyT)
	}
	if !(midT < hugeT) {
		t.Errorf("mid sub-tile (%d) should beat huge (%d)", midT, hugeT)
	}
}

func TestCommRatioGrowsWithP(t *testing.T) {
	// §5.2: the all-to-all gets relatively more expensive at larger p.
	m := machine.UMDCluster()
	ratio := func(p int) float64 {
		// N large enough that per-pair blocks stay above the eager
		// threshold at both p values (same protocol regime).
		res, err := SimulateCube(m, p, 128, Spec{Variant: pfft.Baseline})
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.Avg.CommVisible()) / float64(res.Avg.Total)
	}
	if r8, r16 := ratio(8), ratio(16); !(r16 > r8) {
		t.Errorf("comm ratio should grow with p: p=8 %.3f, p=16 %.3f", r8, r16)
	}
}

func TestUMDGainsMoreThanHopper(t *testing.T) {
	// Fig. 7: overlap buys more on the comm-heavy UMD cluster.
	speedup := func(m machine.Machine) float64 {
		p, n := 8, 64
		g := gridFor(t, p, n)
		fftw, err := SimulateCube(m, p, n, Spec{Variant: pfft.Baseline})
		if err != nil {
			t.Fatal(err)
		}
		nw, err := SimulateCube(m, p, n, Spec{Variant: pfft.NEW, Params: pfft.DefaultParams(g)})
		if err != nil {
			t.Fatal(err)
		}
		return float64(fftw.MaxTotal) / float64(nw.MaxTotal)
	}
	umd, hop := speedup(machine.UMDCluster()), speedup(machine.Hopper())
	if !(umd > hop) {
		t.Errorf("UMD speedup %.3f should exceed Hopper speedup %.3f", umd, hop)
	}
}

func TestFastTransposeCheaper(t *testing.T) {
	m := machine.Hopper()
	p, n := 4, 64
	g := gridFor(t, p, n)
	prm := pfft.DefaultParams(g)
	fast, err := SimulateCube(m, p, n, Spec{Variant: pfft.NEW, Params: prm})
	if err != nil {
		t.Fatal(err)
	}
	// TH uses the plain transpose; compare the Transpose buckets.
	slow, err := SimulateCube(m, p, n, Spec{Variant: pfft.TH, TH: pfft.DefaultTHParams(g)})
	if err != nil {
		t.Fatal(err)
	}
	if !(fast.Avg.Transpose < slow.Avg.Transpose) {
		t.Errorf("fast transpose %d should beat TH transpose %d", fast.Avg.Transpose, slow.Avg.Transpose)
	}
}

// TestFastPathUsedOnlyWhenSquare: NEW and NEW-0 are charged the §3.5
// transpose rate only when Nx == Ny; otherwise the optimized one, like the
// FFTW Baseline.
func TestFastPathUsedOnlyWhenSquare(t *testing.T) {
	m := machine.Hopper()
	transpose := func(v pfft.Variant, ny int) int64 {
		res, err := Simulate(m, 2, 8, ny, 4, Spec{Variant: v, Params: pfft.Params{T: 4, W: 1, Px: 1, Pz: 1, Uy: 1, Uz: 1}})
		if err != nil {
			t.Fatal(err)
		}
		return res.Avg.Transpose
	}
	for _, v := range []pfft.Variant{pfft.NEW, pfft.NEW0} {
		if got, std := transpose(v, 8), transpose(pfft.Baseline, 8); got >= std {
			t.Errorf("%v on 8×8: Transpose %d, want below the standard %d", v, got, std)
		}
		if got, std := transpose(v, 10), transpose(pfft.Baseline, 10); got != std {
			t.Errorf("%v on 8×10: Transpose %d, want the standard %d", v, got, std)
		}
	}
}

func TestTestFrequencyTradeoff(t *testing.T) {
	// Zero test frequency strangles rendezvous progression; absurdly high
	// frequency wastes CPU. A moderate frequency should beat both.
	m := machine.UMDCluster()
	p, n := 8, 128
	g := gridFor(t, p, n)
	at := func(f int) int64 {
		prm := pfft.DefaultParams(g)
		// Tile size chosen so per-pair messages exceed the eager threshold
		// (rendezvous), which is where manual progression matters.
		prm.T = 16
		prm.Fy, prm.Fp, prm.Fu, prm.Fx = f, f, f, f
		res, err := SimulateCube(m, p, n, Spec{Variant: pfft.NEW, Params: prm})
		if err != nil {
			t.Fatal(err)
		}
		return res.MaxTotal
	}
	zero, mid, crazy := at(0), at(4), at(4096)
	if !(mid < zero) {
		t.Errorf("some progression (%d) should beat none (%d)", mid, zero)
	}
	if !(mid < crazy) {
		t.Errorf("moderate frequency (%d) should beat excessive (%d)", mid, crazy)
	}
}
