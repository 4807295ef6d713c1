// Command benchmark is the repository's performance benchmark: four
// closed-loop workloads, each timed against the frozen reference kernel
// of ref.go that runs interleaved with the ops, each op verified.
// README.md in this directory says what is measured and why.
//
//	go run ./benchmark [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-aa N]
//
// BENCHMARK.json at the repository root is the contract the driver runs
// it under (through run.sh, which keeps the build inside the checkout).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

var workloads = []workload{
	{
		name: "slab-mem-64-p2", ranks: slabRanks, refCalls: 1, heapAfterOps: 400, open: openSlab,
		why: "public offt.Plan, mem engine, slab, 64^3 on 2 ranks: kernels, layout, pipeline and large-message memory exchange; serve, tuner and sockets idle",
	},
	{
		name: "pencil-net-32-p4", ranks: pencilRanks, refCalls: 1, heapAfterOps: 1500, open: openPencil,
		why: "four net-engine ranks over loopback TCP driving pencil.Plan on 32^3: small-message socket exchange and the pencil pipeline dominate, kernels are a small share",
	},
	{
		name: "serve-64-p2", ranks: slabRanks, refCalls: 2, heapAfterOps: 250, open: openServe,
		why: "the slab-mem-64-p2 plan behind serve.Server on a loopback HTTP listener: adds wire encode/decode, HTTP, admission, registry and handler to the same transform",
	},
	{
		name: "tune-sim-128-p16", ranks: tuneRanks, refCalls: 30, heapAfterOps: 25, open: openTune,
		why: "one TuneNEW(umd-cluster, p=16, 128^3, budget 40) per op: tuner, model, mpi/sim, simnet and vclock do all the work, no FFT data moves",
	},
}

type options struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string
}

// result is what one run of one workload reports.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "run only this workload (default: all four)")
	seed := flag.Int64("seed", 1, "seed of the input data")
	seconds := flag.Float64("seconds", 25, "length of one workload's timed window, in seconds")
	trace := flag.Int("trace", 0, "1: add the traced pass and report the per-layer metrics instead of the end-to-end ones")
	aa := flag.Int("aa", 0, "run the untraced benchmark 2×N times alternately as sets A and B and compare their medians against the bounds")
	outDir := flag.String("out", filepath.Join("benchmark", "out"), "directory the traced pass writes <workload>.trace.json into")
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}

	selected := workloads
	if *name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			fatalf("unknown workload %q", *name)
		}
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive")
	}

	sum, ok := refSelfCheck()
	if !ok {
		fatalf("reference kernel checksum %#x, want %#x: ref.go was edited or this platform rounds differently; no number would be comparable", sum, refChecksum)
	}
	fmt.Printf("# env go=%s nproc=%d GOMAXPROCS=%d GOGC=%s ref_checksum=%#x\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), envOr("GOGC", "100"), sum)

	if *aa > 0 {
		if err := runAA(selected, *aa, *seed, *seconds); err != nil {
			fatalf("%v", err)
		}
		return
	}

	opt := options{seed: *seed, seconds: *seconds, trace: *trace != 0, outDir: *outDir}
	exit := 0
	for _, w := range selected {
		res, err := runWorkload(w, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			exit = 1
		}
		if res == nil {
			continue // nothing was measured: no result line
		}
		line, merr := json.Marshal(res)
		if merr != nil {
			fatalf("%v", merr)
		}
		fmt.Printf("%s\n", line)
	}
	os.Exit(exit)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

// Shares of -seconds the two windows of a traced run take.
const (
	tracedUntracedShare = 0.6
	tracedShare         = 0.4
	warmupOps           = 2
)

// runWorkload measures one workload and prints what it measured. A nil
// result means nothing could be measured; a non-nil result with a non-nil
// error means ops failed.
func runWorkload(w workload, opt options) (*result, error) {
	fmt.Printf("# workload %s seed=%d seconds=%g trace=%t ref_threads=%d ref_calls_per_op=%d\n",
		w.name, opt.seed, opt.seconds, opt.trace, w.refThreads(), w.refCalls)
	ref := newRefKernel(w.refThreads())
	defer ref.close()
	m := metrics{}    // what the result line carries
	info := metrics{} // printed only

	if !opt.trace {
		sec, runs, err := measureSetup(w, opt.seed, ref, setupBudget)
		if err != nil {
			return nil, err
		}
		m["setup_s"] = sec
		info["setup_cold_starts"] = float64(runs)
	}

	inst, err := w.open(opt.seed)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	win, err := measureOpen(w, inst, ref, opt, m, info)
	if cerr := inst.close(); err == nil && cerr != nil {
		err = fmt.Errorf("close: %w", cerr)
	}
	if err != nil {
		return nil, err
	}

	defs := endToEnd
	if opt.trace {
		defs = perLayer
	}
	res := &result{Correct: win.failed == 0, Attempted: win.attempted, Failed: win.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Printf("%-32s %14.6g %s\n", d.name, v, d.unit)
	}
	for _, k := range slices.Sorted(maps.Keys(info)) {
		fmt.Printf("%-32s %14.6g (not in the result line)\n", k, info[k])
	}
	if win.failed > 0 {
		return res, fmt.Errorf("%d of %d ops failed; first: %v", win.failed, win.attempted, win.firstErr)
	}
	return res, nil
}

// measureOpen warms an open instance up and runs its windows: one
// untraced window for the end-to-end metrics, or, with opt.trace, a
// shorter untraced window, a traced one and the layer probes for the
// per-layer metrics (the end-to-end numbers of the shorter window are
// printed for orientation). The returned window carries the op counts of
// every window run.
func measureOpen(w workload, inst instance, ref *refKernel, opt options, m, info metrics) (window, error) {
	for i := 0; i < warmupOps; i++ {
		if err := inst.op(nil, -1); err != nil {
			return window{}, fmt.Errorf("warm-up op: %w", err)
		}
		ref.run()
	}
	dur := func(share float64) time.Duration { return time.Duration(share * opt.seconds * float64(time.Second)) }
	share, e2e, raw := 1.0, m, info
	if opt.trace {
		share, e2e, raw = tracedUntracedShare, info, m
	}
	win := runWindow(inst, ref, w.refCalls, w.heapAfterOps, dur(share), nil)
	if len(win.opNs) == 0 {
		return win, fmt.Errorf("every op failed; first: %v", win.firstErr)
	}
	e2e["op_x_ref"] = win.xRef()
	e2e["allocs_per_op"] = float64(win.mallocs) / float64(win.attempted)
	e2e["alloc_kb_per_op"] = float64(win.bytes) / 1024 / float64(win.attempted)
	e2e["heap_live_mb"] = float64(win.heapLive) / (1 << 20)
	var err error
	if e2e["virt_ms_per_fft"], err = inst.virtMs(); err != nil {
		return win, fmt.Errorf("virtual time: %w", err)
	}
	windowInfo(raw, &win)
	if !opt.trace {
		return win, nil
	}

	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			m[d.name] = 0 // a layer this workload does not load
		}
	}
	tr := newTracer()
	traced := runWindow(inst, ref, w.refCalls, 0, dur(tracedShare), tr)
	if len(traced.opNs) == 0 {
		return win, fmt.Errorf("every traced op failed; first: %v", traced.firstErr)
	}
	m["bench.trace_overhead_x"] = traced.xRef() / win.xRef()
	m["bench.closure_frac"] = closure(tr.spans, selfTimes(tr.spans), "op")
	if err := inst.layers(m, tr); err != nil {
		return win, fmt.Errorf("per-layer metrics: %w", err)
	}
	path := filepath.Join(opt.outDir, w.name+".trace.json")
	if err := writeChrome(path, w.name, tr.spans); err != nil {
		return win, fmt.Errorf("trace file: %w", err)
	}
	fmt.Printf("# trace %s (%d spans, %d traced ops)\n", path, len(tr.spans), traced.attempted)
	if win.firstErr == nil {
		win.firstErr = traced.firstErr
	}
	win.attempted += traced.attempted
	win.failed += traced.failed
	m["bench.fail_frac"] = float64(win.failed) / float64(win.attempted)
	return win, nil
}

// windowInfo adds the raw numbers of a window: milliseconds, throughput
// and CPU time, which drift with the machine and are therefore reported
// under the bench layer and never gated.
func windowInfo(m metrics, w *window) {
	m["bench.ref_ms_q25"] = ms(quantile(w.refNs, 0.25))
	m["bench.op_ms_p50"] = ms(quantile(w.opNs, 0.5))
	m["bench.op_ms_p90"] = ms(quantile(w.opNs, 0.9))
	m["bench.ops_per_s"] = float64(w.attempted) / (float64(w.wallNs) / 1e9)
	m["bench.cpu_ms_per_op"] = ms(float64(w.cpuNs)) / float64(w.attempted)
	m["bench.samples"] = float64(len(w.opNs))
}
