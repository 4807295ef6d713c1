// Command offt-run executes one parallel 3-D FFT and prints the Fig-8
// style per-step breakdown.
//
// Three engines:
//
//	-engine sim   cost-model run on the simulated cluster (any p/N)
//	-engine mem   real-data run in-process (laptop sizes), verified against
//	              the serial reference transform
//	-engine net   real-data run as ONE rank of a multi-process TCP world;
//	              start p processes, each with its own -rank, sharing one
//	              -coord rendezvous address
//
// Usage:
//
//	offt-run -engine sim -machine hopper -p 32 -n 640 -variant NEW
//	offt-run -engine mem -p 4 -n 64 -variant NEW -verify
//	offt-run -decomp pencil -p 128 -n 64 -engine sim   (2-D grid, p > slab cap)
//	offt-run ... -T 32 -W 3 -Px 16 ... (override tuned/default parameters)
//
//	for r in 0 1 2 3; do
//	  offt-run -engine net -p 4 -rank $r -coord 127.0.0.1:9123 -n 32 -verify &
//	done; wait
//
// Every engine runs the parameters offt.DescribePlan resolves for the
// geometry, with the flag overrides laid on top; sim and mem build an
// offt.Plan from them.
//
// In net mode every process generates the same deterministic seed-42
// input cube, runs its rank's share of the transform, and -verify checks
// the forward/backward round-trip against the rank's own input slab
// (Backward(Forward(x)) = Nx·Ny·Nz·x). -dump writes the rank's raw
// forward output for bit-level cross-engine comparison.
package main

import (
	"flag"
	"fmt"
	"math/cmplx"
	"math/rand"
	"os"
	"time"

	"offt"
	"offt/internal/fft"
	"offt/internal/mpi/fault"
	"offt/internal/pfft"
	"offt/internal/telemetry"
)

func main() {
	engine := flag.String("engine", "sim", "engine: sim (virtual time), mem (real data) or net (one rank of a TCP world)")
	machName := flag.String("machine", "umd-cluster", "machine model (sim engine)")
	p := flag.Int("p", 8, "number of ranks")
	n := flag.Int("n", 64, "per-dimension size (N³ elements)")
	decompName := flag.String("decomp", "slab", "decomposition: slab (1-D, p ≤ min(Nx,Ny)) or pencil (2-D, scales past the slab cap)")
	prFlag := flag.Int("pr", 0, "pencil process-grid rows Py (0 = squarest feasible; pencil only)")
	variantName := flag.String("variant", "NEW", "variant: FFTW, NEW, NEW-0, TH, TH-0")
	verify := flag.Bool("verify", false, "mem/net engine: check the result against the serial transform")
	timeline := flag.Bool("timeline", false, "mem engine: print rank 0's Fig-3-style overlap timeline")
	traceOut := flag.String("trace-out", "",
		`mem engine: write a Chrome trace-event JSON timeline to this file ("-" = stdout; load at ui.perfetto.dev)`)
	tFlag := flag.Int("T", 0, "tile size override (0 = default)")
	wFlag := flag.Int("W", 0, "window size override")
	pxFlag := flag.Int("Px", 0, "pack sub-tile x override")
	pzFlag := flag.Int("Pz", 0, "pack sub-tile z override")
	uyFlag := flag.Int("Uy", 0, "unpack sub-tile y override")
	uzFlag := flag.Int("Uz", 0, "unpack sub-tile z override")
	fyFlag := flag.Int("Fy", -1, "Test calls during FFTy override (-1 = default)")
	fpFlag := flag.Int("Fp", -1, "Test calls during Pack override")
	fuFlag := flag.Int("Fu", -1, "Test calls during Unpack override")
	fxFlag := flag.Int("Fx", -1, "Test calls during FFTx override")
	commName := flag.String("comm", "", "all-to-all schedule: pairwise, bruck, hier, windowed (empty = resolved default)")
	chaosSeed := flag.Int64("chaos", 0, "chaos fault-plan seed (with -chaos-profile)")
	chaosProfile := flag.String("chaos-profile", "none", "fault profile: none, drop, corrupt, stall, mixed")
	rankFlag := flag.Int("rank", -1, "net engine: this process's rank in [0, p)")
	coordFlag := flag.String("coord", "", "net engine: coordinator rendezvous address (host:port); rank 0 listens on it")
	worldFlag := flag.String("world", "offt", "net engine: world id guarding against cross-job joins")
	dumpFlag := flag.String("dump", "", "net engine: write this rank's raw forward output (little-endian complex128s) to a file")
	var obs telemetry.CLI
	obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	variant, err := offt.ParseVariant(*variantName)
	if err != nil {
		fatal(err)
	}
	decomp, err := offt.ParseDecomp(*decompName)
	if err != nil {
		fatal(err)
	}
	profile, err := offt.ParseFaultProfile(*chaosProfile)
	if err != nil {
		fatal(err)
	}
	fplan, err := fault.NewPlan(*chaosSeed, profile, *p)
	if err != nil {
		fatal(err)
	}
	ek := offt.Mem
	switch *engine {
	case "sim":
		ek = offt.Sim
	case "mem", "net":
	default:
		fatal(fmt.Errorf("unknown engine %q", *engine))
	}
	if *engine != "net" && (*rankFlag >= 0 || *coordFlag != "" || *dumpFlag != "") {
		fatal(fmt.Errorf("-rank/-coord/-dump drive the multi-process world; they need -engine net"))
	}
	if *engine != "mem" && (*timeline || *traceOut != "") {
		fatal(fmt.Errorf("-timeline/-trace-out record the step events of a real run; they need -engine mem"))
	}
	if decomp == offt.Slab && *prFlag > 0 {
		fatal(fmt.Errorf("-pr selects the pencil process grid; it needs -decomp pencil"))
	}

	// Resolve the plan's default parameters for this geometry, lay the
	// flag overrides on top, and resolve again to validate the result.
	base := []offt.Option{
		offt.WithGrid(*n, *n, *n), offt.WithRanks(*p),
		offt.WithDecomp(decomp), offt.WithVariant(variant),
		offt.WithEngine(ek), offt.WithMachine(*machName),
	}
	if *commName != "" {
		alg, err := offt.ParseComm(*commName)
		if err != nil {
			fatal(err)
		}
		base = append(base, offt.WithComm(alg))
	}
	desc, err := offt.DescribePlan(base...)
	if err != nil {
		fatal(err)
	}
	prm := desc.Params
	override := func(dst *int, v, unset int) {
		if v > unset {
			*dst = v
		}
	}
	override(&prm.T, *tFlag, 0)
	override(&prm.W, *wFlag, 0)
	override(&prm.Px, *pxFlag, 0)
	override(&prm.Pz, *pzFlag, 0)
	override(&prm.Uy, *uyFlag, 0)
	override(&prm.Uz, *uzFlag, 0)
	override(&prm.Pr, *prFlag, 0)
	override(&prm.Fy, *fyFlag, -1)
	override(&prm.Fp, *fpFlag, -1)
	override(&prm.Fu, *fuFlag, -1)
	override(&prm.Fx, *fxFlag, -1)
	if desc, err = offt.DescribePlan(append(base, offt.WithParams(prm))...); err != nil {
		fatal(err)
	}

	if err := obs.Start(os.Stderr); err != nil {
		fatal(err)
	}
	if *engine == "net" {
		runNet(*rankFlag, *coordFlag, *worldFlag, desc, *verify, *dumpFlag, fplan, &obs)
	} else {
		runPlan(desc, fplan, *verify, *timeline, *traceOut, &obs)
	}
	if err := obs.Finish(); err != nil {
		fatal(err)
	}
}

// runPlan builds the resolved plan on the sim or mem engine, runs one
// forward transform and reports it.
func runPlan(desc offt.PlanDescription, fplan *fault.Plan, verify, timeline bool, traceOut string, obs *telemetry.CLI) {
	reg := obs.Registry()
	if reg == nil && fplan.Active() {
		reg = offt.NewTelemetry() // the chaos summary reads the plan's counters
	}
	opts := []offt.Option{offt.WithTelemetry(reg)}
	if fplan.Active() {
		opts = append(opts, offt.WithFaultPlan(fplan))
	}
	if timeline || traceOut != "" {
		opts = append(opts, offt.WithTrace())
	}
	pl, err := offt.NewPlanFrom(desc, opts...)
	if err != nil {
		fatal(err)
	}
	defer pl.Close()
	sim := desc.Engine == offt.Sim

	fmt.Printf("engine=%v decomp=%v", desc.Engine, desc.Decomp)
	if sim {
		fmt.Printf(" machine=%s", desc.Machine)
	}
	if desc.Decomp == offt.Pencil {
		fmt.Printf(" proc-grid=%dx%d", desc.ProcRows, desc.ProcCols())
	}
	fmt.Printf(" p=%d N=%d³ variant=%v\n", desc.Ranks, desc.Nx, desc.Variant)
	fmt.Printf("params: %v\n", pl.Params())

	var full []complex128
	if !sim {
		full = inputCube(desc.Nx)
	}
	start := time.Now()
	got, err := pl.Forward(full)
	if err != nil {
		fatal(err)
	}
	wall := time.Since(start)
	if sim {
		total, _ := pl.VirtualTimes()
		fmt.Printf("simulated job time: %.4f s (wall %v)\n", float64(total)/1e9, wall.Round(time.Millisecond))
	} else {
		fmt.Printf("wall time: %v\n", wall.Round(time.Microsecond))
	}
	// The pencil cost model reports one completion time, no step breakdown.
	if !sim || desc.Decomp == offt.Slab {
		printBreakdown(pl.Breakdown())
	}
	if fplan.Active() {
		printChaos(pl, reg.Snapshot())
	}
	if timeline {
		fmt.Println("rank 0 timeline (digits = tile index mod 10):")
		offt.RenderTimeline(os.Stdout, pl.TraceEvents()[0], 100)
	}
	if traceOut != "" {
		if err := writeTrace(pl, traceOut); err != nil {
			fatal(err)
		}
		if traceOut != "-" {
			fmt.Printf("chrome trace written to %s (load at ui.perfetto.dev)\n", traceOut)
		}
	}
	if verify && !sim {
		ref := append([]complex128(nil), full...)
		fft.NewPlan3D(desc.Nx, desc.Ny, desc.Nz, fft.Forward).Transform(ref)
		worst := 0.0
		for i := range got {
			if d := cmplx.Abs(got[i] - ref[i]); d > worst {
				worst = d
			}
		}
		fmt.Printf("verification vs serial 3-D FFT: max abs error %.3e\n", worst)
		if worst > 1e-6 {
			fatal(fmt.Errorf("verification FAILED"))
		}
		fmt.Println("verification PASSED")
	}
}

// printChaos summarizes what the fault plan did, from the counters the
// plan published to its telemetry registry.
func printChaos(pl *offt.Plan, snap telemetry.Snapshot) {
	d := pl.Describe()
	switch {
	case d.Engine == offt.Sim && d.Decomp == offt.Pencil:
		fmt.Fprintln(os.Stderr, "warning: the pencil cost model injects no faults; -chaos ignored")
	case d.Engine == offt.Sim:
		fmt.Println("chaos summary (virtual-time degradation):")
		fmt.Printf("  stall displacement  %.4f s\n", snap.Gauges["simnet.stall_ns_injected"]/1e9)
		fmt.Printf("  degraded transfers  %d\n", int64(snap.Gauges["simnet.degraded_transfers"]))
	default:
		c := snap.Counters
		fmt.Println("chaos recovery summary:")
		fmt.Printf("  injected: drops %d, corruptions %d, duplicates %d\n",
			c["mem.transport.drops_injected"], c["mem.transport.corruptions_injected"], c["mem.transport.duplicates_injected"])
		fmt.Printf("  recovered: retransmits %d, dedups %d, checksum rejections %d\n",
			c["mem.transport.retransmits"], c["mem.transport.dedups"], c["mem.transport.corruptions_detected"])
		fmt.Printf("  overlapped→blocking downgrades: %d\n", pl.Downgrades())
	}
}

// writeTrace writes the plan's last traced execution as Chrome trace-event
// JSON to path ("-" = stdout).
func writeTrace(pl *offt.Plan, path string) error {
	if path == "-" {
		return pl.WriteChromeTrace(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pl.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// inputCube is the deterministic seed-42 input every engine transforms.
func inputCube(n int) []complex128 {
	rng := rand.New(rand.NewSource(42))
	full := make([]complex128, n*n*n)
	for i := range full {
		full[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return full
}

func printBreakdown(b pfft.Breakdown) {
	names := pfft.StepNames()
	fmt.Println("per-rank breakdown:")
	for i, v := range b.Steps() {
		fmt.Printf("  %-10s %.4f s\n", names[i], float64(v)/1e9)
	}
	fmt.Printf("  %-10s %.4f s\n", "Total", float64(b.Total)/1e9)
	fmt.Printf("  overlap efficiency %.1f%% (compute hiding vs. visible communication, §5.2.1)\n",
		100*b.OverlapEfficiency())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
