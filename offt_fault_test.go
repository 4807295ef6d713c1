package offt_test

import (
	"errors"
	"testing"
	"time"

	"offt"
	"offt/internal/fft"
	"offt/internal/layout"
	"offt/internal/machine"
	"offt/internal/model"
	"offt/internal/mpi/fault"
	"offt/internal/pfft"
)

// TestWithFaultsRoundTrip: under the canonical drop profile the
// self-healing transport must still produce the exact transform — the
// faults are healed (retransmits, checksum rejects, downgrades), never
// silently absorbed into the data.
func TestWithFaultsRoundTrip(t *testing.T) {
	const n = 12
	data := randData(n*n*n, 41)

	want := append([]complex128(nil), data...)
	fft.NewPlan3D(n, n, n, fft.Forward).Transform(want)

	plan, err := offt.NewPlan(
		offt.WithGrid(n, n, n),
		offt.WithRanks(4),
		offt.WithFaults(offt.FaultDrop, 7),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Close()

	for it := 0; it < 3; it++ {
		got, err := plan.Forward(data)
		if err != nil {
			t.Fatalf("iteration %d: %v", it, err)
		}
		if e := maxAbsDiff(got, want); e > 1e-9 {
			t.Fatalf("iteration %d: faulted transform differs from reference by %g", it, e)
		}
	}
	if plan.Downgrades() < 0 {
		t.Errorf("Downgrades() = %d, want non-negative", plan.Downgrades())
	}
}

// TestBlackholeWorldAborts: a world whose messages never arrive must be
// aborted by the hang watchdog and surface as a typed, inspectable
// ErrWorldFailed — not a wedge, not a panic. The failure must be sticky:
// later executions fail fast.
func TestBlackholeWorldAborts(t *testing.T) {
	const n = 8
	data := randData(n*n*n, 5)

	plan, err := offt.NewPlan(
		offt.WithGrid(n, n, n),
		offt.WithRanks(2),
		offt.WithFaultPlan(&offt.FaultPlan{Seed: 1, DropRate: 1}), // blackhole
		offt.WithWatchdog(150*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Close()

	_, err = plan.Forward(data)
	if err == nil {
		t.Fatal("Forward succeeded over a blackholed world")
	}
	if !errors.Is(err, offt.ErrWorldFailed) {
		t.Fatalf("Forward error = %v, want errors.Is(err, ErrWorldFailed)", err)
	}
	var we *offt.WorldError
	if !errors.As(err, &we) {
		t.Fatalf("Forward error %T does not unwrap to *offt.WorldError", err)
	}
	if plan.WorldErr() == nil {
		t.Error("WorldErr() = nil after a world failure")
	}

	// Sticky fail-fast: the second execution must not re-run (and re-hang)
	// the dead world.
	start := time.Now()
	if _, err := plan.Forward(data); !errors.Is(err, offt.ErrWorldFailed) {
		t.Errorf("second Forward error = %v, want ErrWorldFailed", err)
	}
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Errorf("second Forward took %v; want fail-fast on the sticky failure", elapsed)
	}
}

// TestPlanFail: the administrative kill switch fails the world from the
// outside (the serve request watchdog's path) and every subsequent
// execution reports the typed failure.
func TestPlanFail(t *testing.T) {
	const n = 8
	plan, err := offt.NewPlan(offt.WithGrid(n, n, n), offt.WithRanks(2))
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Close()

	data := randData(n*n*n, 3)
	if _, err := plan.Forward(data); err != nil {
		t.Fatalf("healthy Forward: %v", err)
	}

	cause := errors.New("request watchdog fired")
	plan.Fail(cause)
	_, err = plan.Forward(data)
	if !errors.Is(err, offt.ErrWorldFailed) {
		t.Fatalf("Forward after Fail = %v, want ErrWorldFailed", err)
	}
	if !errors.Is(err, cause) {
		t.Errorf("Forward after Fail = %v, want the administrative cause in the chain", err)
	}

	// Quarantine teardown Closes failed plans while straggler requests may
	// still race in: the world failure must outrank the closed flag so the
	// straggler sees the typed error, not "closed plan".
	if err := plan.Close(); err != nil && !errors.Is(err, offt.ErrWorldFailed) {
		t.Logf("Close of failed plan: %v", err)
	}
	_, err = plan.Forward(data)
	if !errors.Is(err, offt.ErrWorldFailed) {
		t.Fatalf("Forward after Fail+Close = %v, want ErrWorldFailed", err)
	}
}

// TestWatchdogDisabled: WithWatchdog(0) must build a working plan (the
// debugger-session escape hatch) — transforms on a healthy world succeed.
func TestWatchdogDisabled(t *testing.T) {
	const n = 8
	plan, err := offt.NewPlan(
		offt.WithGrid(n, n, n),
		offt.WithRanks(2),
		offt.WithWatchdog(0),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Close()
	if _, err := plan.Forward(randData(n*n*n, 9)); err != nil {
		t.Fatalf("Forward with watchdog disabled: %v", err)
	}
}

// TestParseFaultProfile: the public profile parser accepts every canonical
// name and rejects junk.
func TestParseFaultProfile(t *testing.T) {
	for _, name := range []string{"none", "drop", "corrupt", "stall", "mixed"} {
		if _, err := offt.ParseFaultProfile(name); err != nil {
			t.Errorf("ParseFaultProfile(%q): %v", name, err)
		}
	}
	if _, err := offt.ParseFaultProfile("tornado"); err == nil {
		t.Error("ParseFaultProfile accepted an unknown profile")
	}
}

// TestSimPlanFaults: a slab Sim plan hands its WithFaults schedule to the
// virtual-time fabric, so it reports the cost model's time under
// Spec.Faults, and the stall profile's offline NIC costs time.
func TestSimPlanFaults(t *testing.T) {
	const p, n, mach = 8, 64, "umd-cluster"
	simulate := func(opts ...offt.Option) int64 {
		t.Helper()
		plan, err := offt.NewPlan(append([]offt.Option{
			offt.WithGrid(n, n, n), offt.WithRanks(p),
			offt.WithEngine(offt.Sim), offt.WithMachine(mach),
		}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		defer plan.Close()
		if _, err := plan.Forward(nil); err != nil {
			t.Fatal(err)
		}
		total, _ := plan.VirtualTimes()
		return total
	}
	clean := simulate()
	stalled := simulate(offt.WithFaults(offt.FaultStall, 7))

	fp, err := fault.NewPlan(7, fault.ProfileStall, p)
	if err != nil {
		t.Fatal(err)
	}
	g, err := layout.NewGrid(n, n, n, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.ByName(mach)
	if err != nil {
		t.Fatal(err)
	}
	want, err := model.SimulateCube(m, p, n, model.Spec{Variant: pfft.NEW, Params: pfft.DefaultParams(g), Faults: fp})
	if err != nil {
		t.Fatal(err)
	}
	if stalled != want.MaxTotal {
		t.Errorf("stalled Sim plan: %d virtual ns, cost model with Spec.Faults: %d", stalled, want.MaxTotal)
	}
	if stalled <= clean {
		t.Errorf("stalled Sim plan %d virtual ns is not slower than the fault-free %d", stalled, clean)
	}
}
