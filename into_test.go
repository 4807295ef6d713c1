package offt_test

import (
	"context"
	"runtime"
	"testing"
	"weak"

	"offt"
	"offt/internal/telemetry"
)

// eachInto runs fn once per *Into entry point of a slab and of a pencil plan
// on a ragged grid, where every rank's piece of the caller's arrays differs
// in size and the ranks' writes interleave.
func eachInto(t *testing.T, fn func(t *testing.T, n int, into func(dst, data []complex128) error)) {
	const nx, ny, nz = 12, 10, 9
	for _, c := range []struct {
		name   string
		decomp offt.Decomp
		ranks  int
	}{{"slab", offt.Slab, 3}, {"pencil", offt.Pencil, 6}} {
		plan, err := offt.NewPlan(offt.WithGrid(nx, ny, nz), offt.WithRanks(c.ranks), offt.WithDecomp(c.decomp))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { plan.Close() })
		ctx := context.Background()
		entries := map[string]func(dst, data []complex128) error{
			"ForwardInto":  plan.ForwardInto,
			"BackwardInto": plan.BackwardInto,
			"ForwardIntoCtx": func(dst, data []complex128) error {
				_, err := plan.ForwardIntoCtx(ctx, dst, data)
				return err
			},
			"BackwardIntoCtx": func(dst, data []complex128) error {
				_, err := plan.BackwardIntoCtx(ctx, dst, data)
				return err
			},
		}
		for name, into := range entries {
			t.Run(c.name+"/"+name, func(t *testing.T) { fn(t, nx*ny*nz, into) })
		}
	}
}

// TestIntoLeavesInputUntouched: the ranks hold the caller's input array
// itself, so "read, not modified" is theirs to keep — bit for bit, on every
// *Into entry point.
func TestIntoLeavesInputUntouched(t *testing.T) {
	eachInto(t, func(t *testing.T, n int, into func(dst, data []complex128) error) {
		data := randData(n, 5)
		orig := append([]complex128(nil), data...)
		if err := into(make([]complex128, n), data); err != nil {
			t.Fatal(err)
		}
		for i := range orig {
			if data[i] != orig[i] {
				t.Fatalf("input modified at %d: %v, was %v", i, data[i], orig[i])
			}
		}
	})
}

// TestIntoInPlace: dst may be data. Every rank writes its piece of dst
// while holding the array its peers read their input from, so this is the
// ordering argument beside runJob under test (and, in verify.sh's -race
// pass, under the race detector): the bits must be those of the same
// transform between distinct arrays.
func TestIntoInPlace(t *testing.T) {
	eachInto(t, func(t *testing.T, n int, into func(dst, data []complex128) error) {
		data := randData(n, 6)
		want := make([]complex128, n)
		if err := into(want, data); err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 3; rep++ { // scheduling differs run to run
			buf := append([]complex128(nil), data...)
			if err := into(buf, buf); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if buf[i] != want[i] {
					t.Fatalf("in-place result differs at %d: %v vs %v", i, buf[i], want[i])
				}
			}
		}
	})
}

// TestIntoCtxTraceStages: slab ranks read and write the caller's arrays
// inside their first and last 1-D FFTs, so a slab execution reports no
// scatter or gather time and its request trace carries neither control
// span; a pencil execution copies its pieces in and out and traces both.
func TestIntoCtxTraceStages(t *testing.T) {
	const n = 16
	for _, c := range []struct {
		name   string
		decomp offt.Decomp
		ranks  int
		staged bool
	}{{"slab", offt.Slab, 2, false}, {"pencil", offt.Pencil, 4, true}} {
		t.Run(c.name, func(t *testing.T) {
			plan, err := offt.NewPlan(offt.WithGrid(n, n, n), offt.WithRanks(c.ranks), offt.WithDecomp(c.decomp))
			if err != nil {
				t.Fatal(err)
			}
			defer plan.Close()
			tc := telemetry.NewTraceContext("stages")
			ctx := telemetry.ContextWithTrace(context.Background(), tc)
			st, err := plan.ForwardIntoCtx(ctx, make([]complex128, n*n*n), randData(n*n*n, 8))
			if err != nil {
				t.Fatal(err)
			}
			if c.staged != (st.ScatterNs > 0) || c.staged != (st.GatherNs > 0) {
				t.Errorf("ScatterNs %d, GatherNs %d; want both positive: %v", st.ScatterNs, st.GatherNs, c.staged)
			}
			spans := map[string]int{}
			for _, s := range tc.Snapshot() {
				spans[s.Name]++
			}
			want := map[bool]int{false: 0, true: 1}[c.staged]
			if spans["dispatch"] != 1 || spans["scatter"] != want || spans["gather"] != want {
				t.Errorf("%d dispatch, %d scatter, %d gather spans; want 1, %d, %d",
					spans["dispatch"], spans["scatter"], spans["gather"], want, want)
			}
		})
	}
}

// TestIntoLetsGoOfCallerArrays: the ranks are handed the caller's arrays
// for one execution, not to keep. A plan that still pointed into them
// afterwards would hold a finished request's buffers alive until its next
// one (offt-serve's pooled 4 MiB request buffers, for as long as the plan
// sat in the registry).
func TestIntoLetsGoOfCallerArrays(t *testing.T) {
	eachInto(t, func(t *testing.T, n int, into func(dst, data []complex128) error) {
		data, dst := randData(n, 7), make([]complex128, n)
		held := map[string]weak.Pointer[complex128]{"data": weak.Make(&data[0]), "dst": weak.Make(&dst[0])}
		if err := into(dst, data); err != nil {
			t.Fatal(err)
		}
		data, dst = nil, nil
		runtime.GC()
		for name, w := range held {
			if w.Value() != nil {
				t.Errorf("%s is still reachable after the execution", name)
			}
		}
	})
}
