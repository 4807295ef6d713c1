package main

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"os"
	"time"

	"offt"
	"offt/internal/fft"
	"offt/internal/layout"
	"offt/internal/mpi/fault"
	enginenet "offt/internal/mpi/net"
	"offt/internal/mpi/transport"
	"offt/internal/pencil"
	"offt/internal/pfft"
	"offt/internal/telemetry"
)

// runNet executes this process's rank of a multi-process TCP world: join
// the rendezvous, run the rank's share of the forward transform on the
// deterministic seed-42 input cube, and optionally verify the
// forward/backward round-trip (Backward(Forward(x)) = Nx·Ny·Nz·x, checked
// per rank against its own input slab, so no cross-process gather is
// needed) and dump the raw forward output for bit-level cross-engine
// comparison. A world failure — a killed peer process, a hang timeout —
// surfaces as a typed *offt.WorldError carrying the ErrWorldFailed
// sentinel, exactly like a failed mem plan.
func runNet(rank int, coord, world string, p, n int, decomp offt.Decomp, pr int, variant pfft.Variant, applyOverrides func(*pfft.Params), verify bool, dump string, plan *fault.Plan, obs *telemetry.CLI) {
	if rank < 0 || rank >= p {
		fatal(fmt.Errorf("net engine: -rank %d out of range [0, %d); every process needs its own rank", rank, p))
	}
	if coord == "" {
		fatal(fmt.Errorf("net engine: -coord is required (rank 0 listens on it, the others dial it)"))
	}
	if verify && (variant == pfft.TH || variant == pfft.TH0) {
		fatal(fmt.Errorf("net engine: -verify runs the backward transform; the TH variants are forward-only"))
	}

	var opts []transport.Option
	if plan.Active() {
		// Same arming as the mem engine's chaos mode: a short retransmit
		// timeout recovers plain drops quickly, well inside any deadline.
		opts = append(opts,
			transport.WithFaults(plan),
			transport.WithRetransmitTimeout(2*time.Millisecond))
	}
	w, err := enginenet.Join(enginenet.Config{Rank: rank, Size: p, Coord: coord, World: world}, opts...)
	if err != nil {
		fatal(err)
	}
	defer w.Close()
	w.RegisterTelemetry(obs.Registry())

	rng := rand.New(rand.NewSource(42))
	full := make([]complex128, n*n*n)
	for i := range full {
		full[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}

	var out []complex128
	var b pfft.Breakdown
	var worst float64
	start := time.Now()
	runErr := w.Run(func(c *enginenet.Comm) {
		if decomp == offt.Pencil {
			out, b, worst = netPencil(c, full, n, p, pr, variant, applyOverrides, verify)
		} else {
			out, b, worst = netSlab(c, full, n, p, variant, applyOverrides, verify)
		}
	})
	wall := time.Since(start)
	if runErr != nil {
		fatal(&offt.WorldError{Rank: rank, Cause: runErr})
	}

	fmt.Printf("engine=net rank=%d/%d decomp=%v N=%d³ variant=%v\n", rank, p, decomp, n, variant)
	fmt.Printf("wall time: %v\n", wall.Round(time.Microsecond))
	printBreakdown(b)
	if plan.Active() {
		h := w.Health()
		fmt.Println("chaos recovery summary (this rank):")
		fmt.Printf("  injected: drops %d, corruptions %d, duplicates %d\n",
			h.DropsInjected, h.CorruptionsInjected, h.DuplicatesInjected)
		fmt.Printf("  recovered: retransmits %d, dedups %d, checksum rejections %d\n",
			h.Retransmits, h.Dedups, h.CorruptionsDetected)
	}
	if dump != "" {
		if err := dumpComplex(dump, out); err != nil {
			fatal(err)
		}
		fmt.Printf("forward output (%d elements) written to %s\n", len(out), dump)
	}
	if verify {
		fmt.Printf("rank %d round-trip vs own input slab: max abs error %.3e\n", rank, worst)
		if worst > 1e-9*float64(n*n*n) {
			fatal(fmt.Errorf("verification FAILED"))
		}
		fmt.Println("verification PASSED")
	}
}

// netSlab runs the 1-D slab pipeline for one rank and, under -verify, the
// inverse transform back onto the rank's own input slab.
func netSlab(c *enginenet.Comm, full []complex128, n, p int, variant pfft.Variant, applyOverrides func(*pfft.Params), verify bool) ([]complex128, pfft.Breakdown, float64) {
	g, err := layout.NewGrid(n, n, n, p, c.Rank())
	if err != nil {
		panic(err)
	}
	// Parameters resolve from the rank-0 grid so every process derives the
	// same SPMD-consistent defaults even when slabs are uneven.
	g0, err := layout.NewGrid(n, n, n, p, 0)
	if err != nil {
		panic(err)
	}
	prm := pfft.DefaultParams(g0)
	applyOverrides(&prm)
	slab := layout.ScatterX(full, g)
	orig := append([]complex128(nil), slab...)
	out, b, err := pfft.Forward3D(c, g, slab, variant, prm, fft.Estimate)
	if err != nil {
		panic(err)
	}
	var worst float64
	if verify {
		spec := append([]complex128(nil), out...)
		back, _, err := pfft.Backward3D(c, g, spec, variant, prm, fft.Estimate)
		if err != nil {
			panic(err)
		}
		worst = roundTripErr(back, orig, n*n*n)
	}
	return out, b, worst
}

// netPencil runs the 2-D pencil pipeline for one rank, mirroring the slab
// path. Only the -comm and -pr overrides apply (the pencil parameter set
// resolves its own defaults from the rank-0 geometry).
func netPencil(c *enginenet.Comm, full []complex128, n, p, pr int, variant pfft.Variant, applyOverrides func(*pfft.Params), verify bool) ([]complex128, pfft.Breakdown, float64) {
	if pr == 0 {
		pr = squarestRows(p)
	}
	pc := p / pr
	if pr*pc != p {
		panic(fmt.Sprintf("net engine: -pr %d does not divide -p %d", pr, p))
	}
	g, err := pencil.NewGrid2D(n, n, n, pr, pc, c.Rank())
	if err != nil {
		panic(err)
	}
	g0, err := pencil.NewGrid2D(n, n, n, pr, pc, 0)
	if err != nil {
		panic(err)
	}
	prm := pencil.DefaultParams2D(g0)
	var dummy pfft.Params
	applyOverrides(&dummy)
	prm.Comm = dummy.Comm
	pl, err := pencil.NewPlan(c, g, variant, prm, fft.Estimate)
	if err != nil {
		panic(err)
	}
	defer pl.Close()
	slab := make([]complex128, g.InSize())
	pencil.ScatterPencilInto(slab, full, g)
	orig := append([]complex128(nil), slab...)
	out, b, err := pl.Forward(slab)
	if err != nil {
		panic(err)
	}
	out = append([]complex128(nil), out...)
	var worst float64
	if verify {
		spec := append([]complex128(nil), out...)
		back, _, err := pl.Backward(spec)
		if err != nil {
			panic(err)
		}
		worst = roundTripErr(back, orig, n*n*n)
	}
	return out, b, worst
}

// squarestRows picks the largest divisor of p that is ≤ √p (the squarest
// feasible process grid, matching the auto-tuner's default).
func squarestRows(p int) int {
	for d := int(math.Sqrt(float64(p))); d >= 1; d-- {
		if p%d == 0 {
			return d
		}
	}
	return 1
}

// roundTripErr is the max abs deviation of back from scale·orig.
func roundTripErr(back, orig []complex128, scale int) float64 {
	s := complex(float64(scale), 0)
	worst := 0.0
	for i := range back {
		if d := cmplx.Abs(back[i] - orig[i]*s); d > worst {
			worst = d
		}
	}
	return worst
}

// dumpComplex writes data as little-endian (real, imag) float64 pairs.
func dumpComplex(path string, data []complex128) error {
	wire, _ := fault.WireBytes(data)
	return os.WriteFile(path, wire, 0o644)
}
