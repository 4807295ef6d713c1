package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// instance is one opened workload: a plan, a world or a server, ready to
// run ops.
type instance interface {
	// op runs one closed-loop operation. With a tracer it uses the
	// context-returning calls and records spans under parent.
	op(tr *tracer, parent int) error
	// verify checks the result of the op that just returned, outside the
	// timed span. first asks for the one-time comparison against the
	// independent reference as well.
	verify(first bool) error
	// virtMs is the sim-engine virtual time of one forward transform of
	// the workload's own plan description, in milliseconds.
	virtMs() (float64, error)
	// layers adds the workload's per-layer metrics: what the traced
	// window's spans show, plus the layer probes (which record spans too).
	layers(m metrics, tr *tracer) error
	close() error
}

// workload describes one benchmark workload. refThreads and refCalls are
// constants of the benchmark: how many threads the reference kernel runs
// on, and how often it runs after every op. Neither is ever derived from
// a measurement.
type workload struct {
	name     string
	why      string
	ranks    int
	refCalls int
	// heapAfterOps is the op of the window after which heap_live_mb is
	// read. It is an op count, not a time, because what a workload keeps
	// alive can grow with the ops it has run (the net transport's dedup
	// set does), and the number of ops a window holds follows the
	// machine's speed. A window that ends sooner reads it at its end.
	heapAfterOps int
	open         func(seed int64) (instance, error)
}

// refThreads is min(nproc, ranks) for every workload, the sim workload
// included although its op is serial: the two vCPUs of the box this was
// built on differ in speed by up to a third from minute to minute, a
// one-thread kernel lands on either, and its time was bimodal for it.
func (w workload) refThreads() int { return min(runtime.NumCPU(), w.ranks) }

// window is what one timed window measured.
type window struct {
	opNs, refNs       []float64
	attempted, failed int
	wallNs            int64
	cpuNs             int64 // process CPU time spent inside ops
	mallocs, bytes    uint64
	heapLive          uint64
	firstErr          error
}

// xRef is the window's op time on the reference clock: lower quartile of
// op wall time over lower quartile of reference-kernel wall time. The
// lower quartile sits below the scheduling and GC outliers that make the
// upper half of both distributions wander, and dividing by the kernel
// cancels the machine's minute-to-minute speed drift.
func (w *window) xRef() float64 { return quantile(w.opNs, 0.25) / quantile(w.refNs, 0.25) }

func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// liveHeap is HeapAlloc after two forced collections; the second drops
// what sync.Pools still held after the first.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runWindow runs ops back to back for d: op, refCalls reference calls,
// verification; only the op and each reference call are timed. One op is
// always run, however short d is. The live heap is read after op
// heapAfterOps, or at the end of a window that has fewer.
func runWindow(inst instance, ref *refKernel, refCalls, heapAfterOps int, d time.Duration, tr *tracer) window {
	var w window
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for first := true; first || time.Since(start) < d; first = false {
		if tr != nil {
			tr.op = w.attempted
		}
		c0 := cpuNow()
		id := tr.begin("op", -1)
		t0 := time.Now()
		err := inst.op(tr, id)
		dt := time.Since(t0)
		tr.end(id)
		w.cpuNs += cpuNow() - c0
		w.attempted++
		for i := 0; i < refCalls; i++ {
			w.refNs = append(w.refNs, float64(ref.run()))
		}
		if err == nil {
			w.opNs = append(w.opNs, float64(dt))
			err = inst.verify(first)
		}
		if err != nil {
			w.failed++
			if w.firstErr == nil {
				w.firstErr = fmt.Errorf("op %d: %w", w.attempted-1, err)
			}
		}
		if w.attempted == heapAfterOps {
			w.heapLive = liveHeap()
		}
	}
	w.wallNs = time.Since(start).Nanoseconds()
	runtime.ReadMemStats(&after)
	w.mallocs = after.Mallocs - before.Mallocs
	w.bytes = after.TotalAlloc - before.TotalAlloc
	if w.heapLive == 0 {
		w.heapLive = liveHeap()
	}
	return w
}

// Limits of the cold-start loop behind setup_s.
const (
	setupBudget   = 3 * time.Second
	setupMinRuns  = 5
	setupMaxRuns  = 100
	setupRefCalls = 3
)

// measureSetup repeats the cold start — construct, one op, verify, tear
// down — and returns its lower-quartile time on the reference clock,
// scaled to nominal seconds.
func measureSetup(w workload, seed int64, ref *refKernel, budget time.Duration) (sec float64, runs int, err error) {
	var cold, refNs []float64
	start := time.Now()
	for runs < setupMinRuns || (time.Since(start) < budget && runs < setupMaxRuns) {
		t0 := time.Now()
		inst, err := w.open(seed)
		if err != nil {
			return 0, runs, fmt.Errorf("cold start %d: open: %w", runs, err)
		}
		err = inst.op(nil, -1)
		if err == nil {
			err = inst.verify(true)
		}
		cerr := inst.close()
		cold = append(cold, float64(time.Since(t0)))
		if err != nil {
			return 0, runs, fmt.Errorf("cold start %d: %w", runs, err)
		}
		if cerr != nil {
			return 0, runs, fmt.Errorf("cold start %d: close: %w", runs, cerr)
		}
		for i := 0; i < setupRefCalls; i++ {
			refNs = append(refNs, float64(ref.run()))
		}
		runs++
	}
	return quantile(cold, 0.25) / quantile(refNs, 0.25) * refNominalSec, runs, nil
}
