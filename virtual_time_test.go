package offt_test

import (
	"testing"

	"offt"
)

// simForwardNs builds the described plan on the sim engine and returns the
// virtual completion time of one forward transform.
func simForwardNs(t *testing.T, opts ...offt.Option) int64 {
	t.Helper()
	plan, err := offt.NewPlan(append(opts, offt.WithEngine(offt.Sim))...)
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

// TestVirtualTimesPinned pins, to the nanosecond, the virtual times behind
// BENCHMARK.json's virt_ms_per_fft on its four workloads (slab-mem-64-p2
// and serve-64-p2 share one plan description). The sim engine is
// deterministic, so any difference means the algorithm's control flow or
// the cost model moved: record an intended change in EXPERIMENTS.md "Known
// deviations" and update the numbers in the same commit.
func TestVirtualTimesPinned(t *testing.T) {
	if got := simForwardNs(t, offt.WithGrid(64, 64, 64), offt.WithRanks(2),
		offt.WithMachine("laptop")); got != 3262721 {
		t.Errorf("64³ p=2 slab on laptop: %d virtual ns, want 3262721", got)
	}
	if got := simForwardNs(t, offt.WithGrid(32, 32, 32), offt.WithRanks(4),
		offt.WithDecomp(offt.Pencil), offt.WithMachine("laptop")); got != 252788 {
		t.Errorf("32³ p=4 pencil on laptop: %d virtual ns, want 252788", got)
	}

	prm, out, err := offt.TuneNEW("umd-cluster", 16, 128, 40)
	if err != nil {
		t.Fatal(err)
	}
	want := offt.Params{T: 16, W: 2, Px: 8, Pz: 16, Uy: 8, Uz: 16, Fy: 8, Fp: 8, Fu: 8, Fx: 8}
	if prm != want {
		t.Errorf("TuneNEW(umd-cluster, 16, 128, 40) returned %+v, want %+v", prm, want)
	}
	if got := out.BestTime(); got != 24693560 {
		t.Errorf("tuned time %d ns, want 24693560", got)
	}
	if out.VirtualNs != 1063758431 {
		t.Errorf("virtual tuning time %d ns, want 1063758431", out.VirtualNs)
	}
	if got := simForwardNs(t, offt.WithGrid(128, 128, 128), offt.WithRanks(16),
		offt.WithMachine("umd-cluster"), offt.WithParams(prm)); got != 29805368 {
		t.Errorf("128³ p=16 slab on umd-cluster with the tuned parameters: %d virtual ns, want 29805368", got)
	}
}
