package main

import (
	"fmt"
	"math/cmplx"
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
func runNet(rank int, coord, world string, desc offt.PlanDescription, verify bool, dump string, plan *fault.Plan, obs *telemetry.CLI) {
	p, n := desc.Ranks, desc.Nx
	if rank < 0 || rank >= p {
		fatal(fmt.Errorf("net engine: -rank %d out of range [0, %d); every process needs its own rank", rank, p))
	}
	if coord == "" {
		fatal(fmt.Errorf("net engine: -coord is required (rank 0 listens on it, the others dial it)"))
	}
	if verify && (desc.Variant == pfft.TH || desc.Variant == pfft.TH0) {
		fatal(fmt.Errorf("net engine: -verify runs the backward transform; the TH variants are forward-only"))
	}

	var opts []transport.Option
	if plan.Active() {
		// A short retransmit timeout recovers plain drops quickly, well
		// inside any deadline.
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

	full := inputCube(n)
	var out []complex128
	var b pfft.Breakdown
	var worst float64
	start := time.Now()
	runErr := w.Run(func(c *enginenet.Comm) {
		out, b, worst = netRank(c, full, desc, verify)
	})
	wall := time.Since(start)
	if runErr != nil {
		fatal(&offt.WorldError{Rank: rank, Cause: runErr})
	}

	fmt.Printf("engine=net rank=%d/%d decomp=%v N=%d³ variant=%v\n", rank, p, desc.Decomp, n, desc.Variant)
	fmt.Printf("params: %v\n", desc.Params)
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
		wire, _ := fault.WireBytes(out)
		if err := os.WriteFile(dump, wire, 0o644); err != nil {
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

// netRank runs one rank's forward transform of the resolved plan — the
// slab pipeline, or a pencil.Plan over the resolved process grid, as
// offt.Plan's ranks build them — and, under -verify, the inverse back onto
// the rank's own input piece. It returns the rank's forward output, its
// breakdown and the round trip's max abs deviation from Nx·Ny·Nz·input.
func netRank(c *enginenet.Comm, full []complex128, desc offt.PlanDescription, verify bool) ([]complex128, pfft.Breakdown, float64) {
	n, prm := desc.Nx, desc.Params
	var in []complex128
	var forward, backward func([]complex128) ([]complex128, pfft.Breakdown, error)
	if desc.Decomp == offt.Pencil {
		g, err := pencil.NewGrid2D(n, n, n, desc.ProcRows, desc.ProcCols(), c.Rank())
		if err != nil {
			panic(err)
		}
		pl, err := pencil.NewPlan(c, g, desc.Variant, pencil.FromParams(prm, g), fft.Estimate)
		if err != nil {
			panic(err)
		}
		defer pl.Close()
		in = make([]complex128, g.InSize())
		pencil.ScatterPencilInto(in, full, g)
		forward, backward = pl.Forward, pl.Backward
	} else {
		g, err := layout.NewGrid(n, n, n, desc.Ranks, c.Rank())
		if err != nil {
			panic(err)
		}
		in = layout.ScatterX(full, g)
		forward = func(x []complex128) ([]complex128, pfft.Breakdown, error) {
			return pfft.Forward3D(c, g, x, desc.Variant, prm, fft.Estimate)
		}
		backward = func(x []complex128) ([]complex128, pfft.Breakdown, error) {
			return pfft.Backward3D(c, g, x, desc.Variant, prm, fft.Estimate)
		}
	}
	orig := append([]complex128(nil), in...)
	out, b, err := forward(in)
	if err != nil {
		panic(err)
	}
	out = append([]complex128(nil), out...) // a pencil plan owns its output
	if !verify {
		return out, b, 0
	}
	back, _, err := backward(append([]complex128(nil), out...))
	if err != nil {
		panic(err)
	}
	s := complex(float64(n*n*n), 0)
	worst := 0.0
	for i := range back {
		if d := cmplx.Abs(back[i] - orig[i]*s); d > worst {
			worst = d
		}
	}
	return out, b, worst
}
