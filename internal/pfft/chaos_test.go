package pfft

import (
	"math/cmplx"
	"sync"
	"testing"
	"time"

	"offt/internal/fft"
	"offt/internal/layout"
	"offt/internal/mpi/fault"
	"offt/internal/mpi/mem"
	"offt/internal/mpi/transport"
)

func TestChaosForwardBackward64(t *testing.T) {
	const n, p = 64, 8
	full := randCube(n, n, n, 2026)
	want := serialReference(full, n, n, n)
	plan := &fault.Plan{Seed: 2026, DropRate: 0.015, CorruptRate: 0.01, DupRate: 0.01, JitterNs: 50_000}
	w := mem.NewWorld(p, transport.WithFaults(plan), transport.WithRetransmitTimeout(time.Millisecond))
	outs := make([][]complex128, p)
	var sum Breakdown
	var mu sync.Mutex
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(c *mem.Comm) {
			g, err := layout.NewGrid(n, n, n, p, c.Rank())
			if err != nil {
				panic(err)
			}
			orig := layout.ScatterX(full, g)
			slab := append([]complex128(nil), orig...)
			prm := DefaultParams(g)
			out, bf, err := Forward3D(c, g, slab, NEW, prm, fft.Estimate)
			if err != nil {
				panic(err)
			}
			fwd := append([]complex128(nil), out...)
			back, bb, err := Backward3D(c, g, out, NEW, prm, fft.Estimate)
			if err != nil {
				panic(err)
			}
			// Unnormalized round trip: compare against N·orig.
			scale := complex(float64(n*n*n), 0)
			worst := 0.0
			for i := range back {
				if d := cmplx.Abs(back[i] - scale*orig[i]); d > worst {
					worst = d
				}
			}
			if worst/float64(n*n*n) > 1e-12 {
				t.Errorf("rank %d: round-trip max error %g beyond 1e-12", c.Rank(), worst/float64(n*n*n))
			}
			mu.Lock()
			outs[c.Rank()] = fwd
			sum.Add(bf)
			sum.Add(bb)
			mu.Unlock()
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("world failed under chaos: %v", err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("chaos run did not complete within the bound")
	}
	g0, _ := layout.NewGrid(n, n, n, p, 0)
	got := layout.GatherY(outs, n, n, n, p, OutputFast(NEW, g0))
	if e := maxErr(got, want); e > 1e-12 {
		t.Errorf("forward max relative error %g under chaos, want ≤ 1e-12", e)
	}
	h := w.Health()
	if h.DropsInjected < 1 || h.CorruptionsInjected < 1 {
		t.Errorf("plan injected drops=%d corruptions=%d, want ≥ 1 each", h.DropsInjected, h.CorruptionsInjected)
	}
	if h.Retransmits < 1 {
		t.Errorf("Retransmits = %d, want ≥ 1 (self-healing transport must have recovered something)", h.Retransmits)
	}
	if h.CorruptionsDetected < h.CorruptionsInjected {
		t.Errorf("checksum missed corruption: detected %d < injected %d", h.CorruptionsDetected, h.CorruptionsInjected)
	}
	if sum.Downgrades != 0 {
		t.Logf("note: %d ranks downgraded to blocking under chaos (allowed)", sum.Downgrades)
	}
}

// TestChaosStallDowngrades pins one rank's NIC offline past the soft wait
// deadline: at least one rank must downgrade overlapped→blocking, and the
// transform must still be bit-correct to serial tolerance.
func TestChaosStallDowngrades(t *testing.T) {
	const n, p = 32, 4
	full := randCube(n, n, n, 11)
	want := serialReference(full, n, n, n)
	plan := &fault.Plan{Seed: 11, Stalls: []fault.RankStall{{Rank: 1, At: 0, Dur: int64(40 * time.Millisecond)}}}
	w := mem.NewWorld(p, transport.WithFaults(plan), transport.WithDeadline(2*time.Millisecond))
	outs := make([][]complex128, p)
	var sum Breakdown
	var mu sync.Mutex
	err := w.Run(func(c *mem.Comm) {
		g, err := layout.NewGrid(n, n, n, p, c.Rank())
		if err != nil {
			panic(err)
		}
		slab := layout.ScatterX(full, g)
		out, b, err := Forward3D(c, g, slab, NEW, DefaultParams(g), fft.Estimate)
		if err != nil {
			panic(err)
		}
		mu.Lock()
		outs[c.Rank()] = out
		sum.Add(b)
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("world failed: %v", err)
	}
	if sum.Downgrades < 1 {
		t.Errorf("Downgrades = %d, want ≥ 1 under a 40ms stall vs 2ms deadline", sum.Downgrades)
	}
	g0, _ := layout.NewGrid(n, n, n, p, 0)
	got := layout.GatherY(outs, n, n, n, p, OutputFast(NEW, g0))
	if e := maxErr(got, want); e > tol {
		t.Errorf("max relative error %g after downgrade, want ≤ %g", e, tol)
	}
}

// TestChaosProfilesQuick runs the canonical profiles at small scale: every
// profile must complete correctly.
func TestChaosProfilesQuick(t *testing.T) {
	const n, p = 16, 4
	full := randCube(n, n, n, 3)
	want := serialReference(full, n, n, n)
	for _, profile := range fault.Profiles() {
		for _, seed := range []int64{1, 9} {
			plan, err := fault.NewPlan(seed, profile, p)
			if err != nil {
				t.Fatal(err)
			}
			w := mem.NewWorld(p,
				transport.WithFaults(plan),
				transport.WithRetransmitTimeout(time.Millisecond),
				transport.WithDeadline(2*time.Millisecond))
			outs := make([][]complex128, p)
			var mu sync.Mutex
			err = w.Run(func(c *mem.Comm) {
				g, gerr := layout.NewGrid(n, n, n, p, c.Rank())
				if gerr != nil {
					panic(gerr)
				}
				slab := layout.ScatterX(full, g)
				out, _, ferr := Forward3D(c, g, slab, NEW, DefaultParams(g), fft.Estimate)
				if ferr != nil {
					panic(ferr)
				}
				mu.Lock()
				outs[c.Rank()] = out
				mu.Unlock()
			})
			if err != nil {
				t.Fatalf("profile %s seed %d: %v", profile, seed, err)
			}
			g0, _ := layout.NewGrid(n, n, n, p, 0)
			got := layout.GatherY(outs, n, n, n, p, OutputFast(NEW, g0))
			if e := maxErr(got, want); e > tol {
				t.Errorf("profile %s seed %d: max relative error %g", profile, seed, e)
			}
		}
	}
}

// TestNoFaultsNoDowngrade: with no plan attached, the overlapped pipeline
// must not downgrade and the transport must report no recovery activity.
func TestNoFaultsNoDowngrade(t *testing.T) {
	const n, p = 16, 4
	full := randCube(n, n, n, 5)
	w := mem.NewWorld(p)
	var sum Breakdown
	var mu sync.Mutex
	err := w.Run(func(c *mem.Comm) {
		g, gerr := layout.NewGrid(n, n, n, p, c.Rank())
		if gerr != nil {
			panic(gerr)
		}
		slab := layout.ScatterX(full, g)
		_, b, ferr := Forward3D(c, g, slab, NEW, DefaultParams(g), fft.Estimate)
		if ferr != nil {
			panic(ferr)
		}
		mu.Lock()
		sum.Add(b)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Downgrades != 0 {
		t.Errorf("Downgrades = %d without faults, want 0", sum.Downgrades)
	}
	h := w.Health()
	if h.Retransmits != 0 || h.DropsInjected != 0 || h.Dedups != 0 {
		t.Errorf("fault-free world reported recovery activity: %+v", h)
	}
}

// TestTraceRecordsDowngrade: a traced run under a stall must record the
// Downgrade event with the triggering tile on at least one rank.
func TestTraceRecordsDowngrade(t *testing.T) {
	const n, p = 16, 4
	full := randCube(n, n, n, 13)
	plan := &fault.Plan{Seed: 13, Stalls: []fault.RankStall{{Rank: 0, At: 0, Dur: int64(30 * time.Millisecond)}}}
	w := mem.NewWorld(p, transport.WithFaults(plan), transport.WithDeadline(2*time.Millisecond))
	traces := make([][]StepEvent, p)
	err := w.Run(func(c *mem.Comm) {
		g, gerr := layout.NewGrid(n, n, n, p, c.Rank())
		if gerr != nil {
			panic(gerr)
		}
		pl, perr := NewPlan(c, g, NEW, DefaultParams(g), fft.Estimate, WithTrace())
		if perr != nil {
			panic(perr)
		}
		defer pl.Close()
		if _, _, rerr := pl.Forward(layout.ScatterX(full, g)); rerr != nil {
			panic(rerr)
		}
		traces[c.Rank()] = pl.Trace()
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for r, evs := range traces {
		for _, e := range evs {
			if e.Name == "Downgrade" {
				found = true
				if e.Tile < 0 {
					t.Errorf("rank %d: Downgrade event without a tile index", r)
				}
			}
		}
	}
	if !found {
		t.Error("no Downgrade event recorded on any rank")
	}
}
