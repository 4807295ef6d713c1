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
	"strings"
	"time"

	"offt"
	"offt/internal/fft"
	"offt/internal/layout"
	"offt/internal/machine"
	"offt/internal/model"
	"offt/internal/mpi/fault"
	"offt/internal/mpi/mem"
	"offt/internal/mpi/transport"
	"offt/internal/pfft"
	"offt/internal/telemetry"
)

func main() {
	engine := flag.String("engine", "sim", "engine: sim (virtual time) or mem (real data)")
	machName := flag.String("machine", "umd-cluster", "machine model (sim engine)")
	p := flag.Int("p", 8, "number of ranks")
	n := flag.Int("n", 64, "per-dimension size (N³ elements)")
	decompName := flag.String("decomp", "slab", "decomposition: slab (1-D, p ≤ min(Nx,Ny)) or pencil (2-D, scales past the slab cap)")
	prFlag := flag.Int("pr", 0, "pencil process-grid rows Py (0 = squarest feasible; pencil only)")
	variantName := flag.String("variant", "NEW", "variant: FFTW, NEW, NEW-0, TH, TH-0")
	verify := flag.Bool("verify", false, "mem engine: check the result against the serial transform")
	timeline := flag.Bool("timeline", false, "mem engine: print rank 0's Fig-3-style overlap timeline")
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

	variant, err := parseVariant(*variantName)
	if err != nil {
		fatal(err)
	}
	if err := obs.Start(os.Stderr); err != nil {
		fatal(err)
	}
	profile, err := fault.ParseProfile(*chaosProfile)
	if err != nil {
		fatal(err)
	}
	plan, err := fault.NewPlan(*chaosSeed, profile, *p)
	if err != nil {
		fatal(err)
	}
	commSet := *commName != ""
	var commAlg offt.CommAlg
	if commSet {
		commAlg, err = offt.ParseComm(*commName)
		if err != nil {
			fatal(err)
		}
	}
	applyOverrides := func(prm *pfft.Params) {
		if commSet {
			prm.Comm = commAlg
		}
		override := func(dst *int, v int) {
			if v > 0 {
				*dst = v
			}
		}
		override(&prm.T, *tFlag)
		override(&prm.W, *wFlag)
		override(&prm.Px, *pxFlag)
		override(&prm.Pz, *pzFlag)
		override(&prm.Uy, *uyFlag)
		override(&prm.Uz, *uzFlag)
		overrideF := func(dst *int, v int) {
			if v >= 0 {
				*dst = v
			}
		}
		overrideF(&prm.Fy, *fyFlag)
		overrideF(&prm.Fp, *fpFlag)
		overrideF(&prm.Fu, *fuFlag)
		overrideF(&prm.Fx, *fxFlag)
	}

	decomp, err := offt.ParseDecomp(*decompName)
	if err != nil {
		fatal(err)
	}
	if *engine == "net" {
		runNet(*rankFlag, *coordFlag, *worldFlag, *p, *n, decomp, *prFlag, variant,
			applyOverrides, *verify, *dumpFlag, plan, &obs)
		if err := obs.Finish(); err != nil {
			fatal(err)
		}
		return
	}
	if *rankFlag >= 0 || *coordFlag != "" || *dumpFlag != "" {
		fatal(fmt.Errorf("-rank/-coord/-dump drive the multi-process world; they need -engine net"))
	}
	if decomp == offt.Pencil {
		runPencil(*engine, *machName, *p, *prFlag, *n, variant, applyOverrides, *verify, *timeline, plan, &obs)
		if err := obs.Finish(); err != nil {
			fatal(err)
		}
		return
	}
	if *prFlag > 0 {
		fatal(fmt.Errorf("-pr selects the pencil process grid; it needs -decomp pencil"))
	}

	g, err := layout.NewGrid(*n, *n, *n, *p, 0)
	if err != nil {
		fatal(err)
	}
	prm := pfft.DefaultParams(g)
	applyOverrides(&prm)

	switch *engine {
	case "sim":
		runSim(*machName, *p, *n, variant, prm, plan, &obs)
	case "mem":
		runMem(*p, *n, variant, prm, *verify, *timeline, plan, &obs)
	default:
		fatal(fmt.Errorf("unknown engine %q", *engine))
	}
	if err := obs.Finish(); err != nil {
		fatal(err)
	}
}

// runPencil drives the 2-D pencil decomposition through the public plan
// API (the slab paths below predate it and keep their low-level plumbing
// for -timeline/-trace-out support, which needs the slab trace engine).
func runPencil(engine, machName string, p, pr, n int, variant pfft.Variant, applyOverrides func(*pfft.Params), verify, timeline bool, fplan *fault.Plan, obs *telemetry.CLI) {
	if timeline || obs.TraceOut != "" {
		fmt.Fprintln(os.Stderr, "warning: -timeline/-trace-out need the slab trace engine; ignored for -decomp pencil")
	}
	var ek offt.EngineKind
	switch engine {
	case "sim":
		ek = offt.Sim
	case "mem":
		ek = offt.Mem
	default:
		fatal(fmt.Errorf("unknown engine %q", engine))
	}
	base := []offt.Option{
		offt.WithGrid(n, n, n), offt.WithRanks(p),
		offt.WithDecomp(offt.Pencil), offt.WithVariant(variant),
		offt.WithEngine(ek), offt.WithMachine(machName),
	}
	// Resolve the default pencil parameters for this geometry, then lay
	// the flag overrides (and -pr, the process-grid rows) on top.
	desc, err := offt.DescribePlan(base...)
	if err != nil {
		fatal(err)
	}
	prm := desc.Params
	applyOverrides(&prm)
	if pr > 0 {
		prm.Pr = pr
	}
	opts := append(base, offt.WithParams(prm), offt.WithTelemetry(obs.Registry()))
	if fplan.Active() {
		opts = append(opts, offt.WithFaultPlan(fplan))
	}
	pl, err := offt.NewPlan(opts...)
	if err != nil {
		fatal(err)
	}
	defer pl.Close()
	d := pl.Describe()
	fmt.Printf("engine=%s decomp=pencil proc-grid=%dx%d p=%d N=%d³ variant=%v\n",
		engine, d.ProcRows, d.ProcCols(), p, n, variant)
	fmt.Printf("params: %v\n", pl.Params())

	if ek == offt.Sim {
		start := time.Now()
		if _, err := pl.Forward(nil); err != nil {
			fatal(err)
		}
		total, _ := pl.VirtualTimes()
		fmt.Printf("simulated job time: %.4f s (wall %v)\n", float64(total)/1e9, time.Since(start).Round(time.Millisecond))
		return
	}

	rng := rand.New(rand.NewSource(42))
	full := make([]complex128, n*n*n)
	for i := range full {
		full[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	start := time.Now()
	got, err := pl.Forward(full)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("wall time: %v\n", time.Since(start).Round(time.Microsecond))
	printBreakdown(pl.Breakdown())
	if fplan.Active() {
		fmt.Printf("overlapped→blocking downgrades: %d\n", pl.Downgrades())
	}
	if verify {
		ref := append([]complex128(nil), full...)
		fft.NewPlan3D(n, n, n, fft.Forward).Transform(ref)
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

func parseVariant(s string) (pfft.Variant, error) {
	for _, v := range pfft.Variants() {
		if strings.EqualFold(v.String(), s) {
			return v, nil
		}
	}
	return 0, fmt.Errorf("unknown variant %q (want FFTW, NEW, NEW-0, TH, TH-0)", s)
}

func runSim(machName string, p, n int, variant pfft.Variant, prm pfft.Params, plan *fault.Plan, obs *telemetry.CLI) {
	if obs.TraceOut != "" {
		fmt.Fprintln(os.Stderr, "warning: -trace-out needs per-rank step events; only the mem engine records them (ignored for sim)")
	}
	m, err := machine.ByName(machName)
	if err != nil {
		fatal(err)
	}
	spec := model.Spec{Variant: variant, Params: prm}
	if variant == pfft.TH || variant == pfft.TH0 {
		spec.TH = pfft.THParams{T: prm.T, W: prm.W, F: prm.Fy}
	}
	if plan.Active() {
		spec.Faults = plan
	}
	start := time.Now()
	res, err := model.SimulateCube(m, p, n, spec)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("engine=sim machine=%s p=%d N=%d³ variant=%v\n", m.Name, p, n, variant)
	fmt.Printf("params: %v\n", prm)
	fmt.Printf("simulated job time: %.4f s (wall %v)\n", float64(res.MaxTotal)/1e9, time.Since(start).Round(time.Millisecond))
	printBreakdown(res.Avg)
	pfft.NewBreakdownObserver(obs.Registry(), "pfft").Observe(res.Avg)
	res.Net.Publish(obs.Registry())
	if plan.Active() {
		fmt.Println("chaos summary (virtual-time degradation):")
		fmt.Printf("  stall displacement  %.4f s\n", float64(res.Net.StallNsInjected)/1e9)
		fmt.Printf("  degraded transfers  %d\n", res.Net.DegradedTransfers)
	}
}

func runMem(p, n int, variant pfft.Variant, prm pfft.Params, verify, timeline bool, plan *fault.Plan, obs *telemetry.CLI) {
	rng := rand.New(rand.NewSource(42))
	full := make([]complex128, n*n*n)
	for i := range full {
		full[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	var ref []complex128
	if verify {
		ref = append([]complex128(nil), full...)
		fft.NewPlan3D(n, n, n, fft.Forward).Transform(ref)
	}

	var opts []transport.Option
	if plan.Active() {
		// The soft wait deadline arms the overlapped→blocking downgrade;
		// the stall profiles exceed it by design. The retransmit timeout
		// sits well inside the deadline so plain drops recover without
		// forcing a downgrade.
		opts = append(opts,
			transport.WithFaults(plan),
			transport.WithRetransmitTimeout(2*time.Millisecond),
			transport.WithDeadline(15*time.Millisecond))
	}
	w := mem.NewWorld(p, opts...)
	w.RegisterTelemetry(obs.Registry())
	// -timeline wants rank 0's events; -trace-out wants every rank's.
	tracing := timeline || obs.TraceOut != ""
	outs := make([][]complex128, p)
	bs := make([]pfft.Breakdown, p)
	traces := make([][]pfft.StepEvent, p)
	start := time.Now()
	err := w.Run(func(c *mem.Comm) {
		g, err := layout.NewGrid(n, n, n, p, c.Rank())
		if err != nil {
			panic(err)
		}
		var popts []pfft.PlanOpt
		if tracing {
			popts = append(popts, pfft.WithTrace())
		}
		pl, err := pfft.NewPlan(c, g, variant, prm, fft.Estimate, popts...)
		if err != nil {
			panic(err)
		}
		defer pl.Close()
		out, b, err := pl.Forward(layout.ScatterX(full, g))
		if err != nil {
			panic(err)
		}
		outs[c.Rank()], bs[c.Rank()], traces[c.Rank()] = out, b, pl.Trace()
	})
	if err != nil {
		fatal(err)
	}
	wall := time.Since(start)
	fmt.Printf("engine=mem p=%d N=%d³ variant=%v\n", p, n, variant)
	fmt.Printf("params: %v\n", prm)
	fmt.Printf("wall time: %v\n", wall.Round(time.Microsecond))
	var avg pfft.Breakdown
	met := pfft.NewBreakdownObserver(obs.Registry(), "pfft")
	for _, b := range bs {
		avg.Add(b)
		met.Observe(b)
	}
	avg.Scale(int64(p))
	printBreakdown(avg)
	if plan.Active() {
		var downgrades int64
		for _, b := range bs {
			downgrades += b.Downgrades
		}
		h := w.Health()
		fmt.Println("chaos recovery summary:")
		fmt.Printf("  injected: drops %d, corruptions %d, duplicates %d\n",
			h.DropsInjected, h.CorruptionsInjected, h.DuplicatesInjected)
		fmt.Printf("  recovered: retransmits %d, dedups %d, checksum rejections %d\n",
			h.Retransmits, h.Dedups, h.CorruptionsDetected)
		fmt.Printf("  overlapped→blocking downgrades: %d\n", downgrades)
	}
	if timeline {
		fmt.Println("rank 0 timeline (digits = tile index mod 10):")
		pfft.RenderTimeline(os.Stdout, traces[0], 100)
	}
	if obs.TraceOut != "" {
		if err := pfft.TraceTimeline(traces).WriteChromeTraceFile(obs.TraceOut); err != nil {
			fatal(err)
		}
		if obs.TraceOut != "-" {
			fmt.Printf("chrome trace written to %s (load at ui.perfetto.dev)\n", obs.TraceOut)
		}
	}

	if verify {
		g0, _ := layout.NewGrid(n, n, n, p, 0)
		got := layout.GatherY(outs, n, n, n, p, pfft.OutputFast(variant, g0))
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
