package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"offt"
	"offt/internal/fft"
	"offt/internal/layout"
	"offt/internal/machine"
	"offt/internal/model"
	"offt/internal/mpi"
	"offt/internal/mpi/mem"
	enginenet "offt/internal/mpi/net"
	"offt/internal/pfft"
)

// Probes are short measurements that call one layer's public functions
// with the op's shapes. Each records a root span (op -1) so it shows in
// the trace file, and repeats a fixed number of times; the reported value
// is the median repetition.

// timeReps runs fn reps times under a probe span and returns the median
// duration in nanoseconds. prep, when not nil, runs untimed before each
// repetition.
func timeReps(tr *tracer, name string, reps int, prep, fn func()) float64 {
	tr.op = -1
	id := tr.begin("probe."+name, -1)
	defer tr.end(id)
	ts := make([]float64, reps)
	for i := range ts {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		fn()
		ts[i] = float64(time.Since(t0))
	}
	return median(ts)
}

// probeFFT measures the plain baseline (single-threaded fft.Plan3D on the
// op's grid) and the batched row kernel over the grid's contiguous rows.
func probeFFT(m metrics, tr *tracer, n int, in []complex128) {
	x := make([]complex128, len(in))
	restore := func() { copy(x, in) }
	p3 := fft.NewPlan3D(n, n, n, fft.Forward)
	m["fft.serial3d_ms"] = ms(timeReps(tr, "fft.serial3d", 9, restore, func() { p3.Transform(x) }))
	p1 := fft.NewPlan(n, fft.Forward)
	rows := timeReps(tr, "fft.rows", 9, restore, func() { p1.TransformRows(x, n*n, n) })
	m["fft.rows_ns_per_elem"] = rows / float64(len(x))
}

// probeLayout measures the slab scatter and gather the public plan runs
// around every transform. The rates count computed bytes: the grid's 16
// bytes per element, once, whatever the caches made of it.
func probeLayout(m metrics, tr *tracer, n, p int, in []complex128) error {
	grids := make([]layout.Grid, p)
	slabs := make([][]complex128, p)
	for r := range grids {
		g, err := layout.NewGrid(n, n, n, p, r)
		if err != nil {
			return err
		}
		grids[r] = g
		slabs[r] = make([]complex128, g.InSize())
	}
	bytes := float64(16 * len(in))
	scatter := timeReps(tr, "layout.scatter", 9, nil, func() {
		for r, g := range grids {
			layout.ScatterXInto(slabs[r], in, g)
		}
	})
	m["layout.scatter_gbps"] = bytes / scatter // bytes per ns = GB/s
	outs := make([][]complex128, p)
	for r, g := range grids {
		outs[r] = make([]complex128, g.OutSize())
	}
	full := make([]complex128, len(in))
	fast := pfft.OutputFast(pfft.NEW, grids[0])
	gather := timeReps(tr, "layout.gather", 9, nil, func() {
		layout.GatherYInto(full, outs, n, n, n, p, fast)
	})
	m["layout.gather_gbps"] = bytes / gather
	return nil
}

// probePlanLifecycle times the public plan's construction and Close.
func probePlanLifecycle(m metrics, tr *tracer, opts []offt.Option) error {
	tr.op = -1
	id := tr.begin("probe.offt.lifecycle", -1)
	defer tr.end(id)
	var newNs, closeNs []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		plan, err := offt.NewPlan(opts...)
		if err != nil {
			return err
		}
		t1 := time.Now()
		if err := plan.Close(); err != nil {
			return err
		}
		newNs = append(newNs, float64(t1.Sub(t0)))
		closeNs = append(closeNs, float64(time.Since(t1)))
	}
	m["offt.new_plan_ms"] = ms(median(newNs))
	m["offt.close_ms"] = ms(median(closeNs))
	return nil
}

// exchange is one all-to-all an op posts on one rank.
type exchange struct{ send, recv []int }

// recComm records the counts of every all-to-all posted through it.
type recComm struct {
	mpi.Comm
	log *[]exchange
}

func (c recComm) note(sendCounts, recvCounts []int) {
	*c.log = append(*c.log, exchange{append([]int(nil), sendCounts...), append([]int(nil), recvCounts...)})
}

func (c recComm) Ialltoallv(send []complex128, sendCounts []int, recv []complex128, recvCounts []int) mpi.Request {
	c.note(sendCounts, recvCounts)
	return c.Comm.Ialltoallv(send, sendCounts, recv, recvCounts)
}

func (c recComm) Alltoallv(send []complex128, sendCounts []int, recv []complex128, recvCounts []int) {
	c.note(sendCounts, recvCounts)
	c.Comm.Alltoallv(send, sendCounts, recv, recvCounts)
}

// recordExchanges runs one op of a per-rank plan on a throw-away mem world
// whose communicators record every all-to-all, and returns each rank's
// list. oneOp builds the rank's plan on the given communicator and runs
// one forward and one backward transform.
func recordExchanges(p int, oneOp func(c mpi.Comm, rank int) error) ([][]exchange, error) {
	logs := make([][]exchange, p)
	errs := make([]error, p)
	runErr := mem.NewWorld(p).Run(func(c *mem.Comm) {
		r := c.Rank()
		errs[r] = oneOp(recComm{Comm: c, log: &logs[r]}, r)
	})
	return logs, errors.Join(append(errs, runErr)...)
}

// Repetitions of the exchange replay: timed one by one, then counted in
// two blocks of replayCountReps and twice that between three reads of the
// memory statistics and health counters. The difference of the two blocks
// is exactly replayCountReps replays: the barriers around a block, which
// send messages of their own, cancel.
const (
	replayTimedReps = 30
	replayCountReps = 20
)

// gate is a reusable barrier for the goroutines of this process. The
// ranks of a probe world meet at it after an engine barrier, so that rank
// 0 reads the counters while no rank is sending anything.
type gate struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n, here int
	round   int
}

func newGate(n int) *gate {
	g := &gate{n: n}
	g.cond = sync.NewCond(&g.mu)
	return g
}

func (g *gate) wait() {
	g.mu.Lock()
	defer g.mu.Unlock()
	round := g.round
	if g.here++; g.here == g.n {
		g.here = 0
		g.round++
		g.cond.Broadcast()
		return
	}
	for g.round == round {
		g.cond.Wait()
	}
}

// replayRank is one rank's side of the exchange probe: the op's recorded
// all-to-alls and nothing else. Rank 0 times each repetition and calls
// read at the three points where the world stands still.
func replayRank(c mpi.Comm, g *gate, log []exchange, times *[]float64, read func(stage int)) {
	var maxSend, maxRecv int
	for _, ex := range log {
		maxSend = max(maxSend, mpi.TotalCount(ex.send))
		maxRecv = max(maxRecv, mpi.TotalCount(ex.recv))
	}
	send, recv := make([]complex128, maxSend), make([]complex128, maxRecv)
	once := func() {
		for _, ex := range log {
			c.Alltoallv(send[:mpi.TotalCount(ex.send)], ex.send, recv[:mpi.TotalCount(ex.recv)], ex.recv)
		}
	}
	once() // warm the transport's buffers
	for i := 0; i < replayTimedReps; i++ {
		c.Barrier()
		t0 := time.Now()
		once()
		if c.Rank() == 0 {
			*times = append(*times, float64(time.Since(t0)))
		}
	}
	for stage, reps := range [3]int{0, replayCountReps, 2 * replayCountReps} {
		for i := 0; i < reps; i++ {
			once()
		}
		c.Barrier()
		g.wait()
		if c.Rank() == 0 {
			read(stage)
		}
		g.wait()
	}
}

// exchangeCounts is what the exchange probe reads at its two barriers.
type exchangeCounts struct {
	mallocs, bytes uint64
	health         mpi.Health
}

// exchangeMetrics fills the metrics of one engine's exchange probe from
// the three counter reads.
func exchangeMetrics(m metrics, prefix string, logs [][]exchange, times []float64, c [3]exchangeCounts) {
	var elems, perRank int
	for r, log := range logs {
		perRank = len(log)
		for _, ex := range log {
			for dst, n := range ex.send {
				if dst != r {
					elems += n
				}
			}
		}
	}
	// What replayCountReps replays added: second block minus first.
	extra := func(get func(exchangeCounts) float64) float64 {
		return (get(c[2]) - get(c[1])) - (get(c[1]) - get(c[0]))
	}
	worldExchanges := float64(replayCountReps * perRank) // every rank takes part in each
	m[prefix+".alltoall_ms"] = ms(median(times))
	m[prefix+".msgs_per_op"] = extra(func(e exchangeCounts) float64 { return float64(e.health.Sent) }) / replayCountReps
	m[prefix+".kb_per_op"] = float64(elems) * mpi.Elem16 / 1024 // computed from the counts
	m[prefix+".allocs_per_exchange"] = extra(func(e exchangeCounts) float64 { return float64(e.mallocs) }) / worldExchanges
	m[prefix+".alloc_kb_per_exchange"] = extra(func(e exchangeCounts) float64 { return float64(e.bytes) }) / 1024 / worldExchanges
	m[prefix+".retransmits"] = float64(c[2].health.Retransmits - c[0].health.Retransmits)
}

func readCounts(health func() mpi.Health) exchangeCounts {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return exchangeCounts{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, health: health()}
}

// probeMemExchange replays the op's all-to-alls on a fresh mem world.
func probeMemExchange(m metrics, tr *tracer, logs [][]exchange) error {
	tr.op = -1
	id := tr.begin("probe.mpi.mem.alltoall", -1)
	defer tr.end(id)
	p := len(logs)
	w := mem.NewWorld(p)
	var times []float64
	var counts [3]exchangeCounts
	g := newGate(p)
	err := w.Run(func(c *mem.Comm) {
		replayRank(c, g, logs[c.Rank()], &times, func(stage int) { counts[stage] = readCounts(w.Health) })
	})
	if err != nil {
		return err
	}
	exchangeMetrics(m, "mpi.mem", logs, times, counts)
	return nil
}

// joinNetWorlds forms one net-engine world of p ranks inside this process
// over TCP loopback, on ports the kernel picks.
func joinNetWorlds(p int) ([]*enginenet.World, time.Duration, error) {
	// Rank 0 is handed the live rendezvous listener: closing it and
	// rebinding the port would race the kernel giving the port away.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	worlds := make([]*enginenet.World, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := enginenet.Config{Rank: r, Size: p, Coord: ln.Addr().String(), World: "offt-benchmark", JoinTimeout: 15 * time.Second}
			if r == 0 {
				cfg.CoordListener = ln
			}
			worlds[r], errs[r] = enginenet.Join(cfg)
		}()
	}
	wg.Wait()
	took := time.Since(t0)
	if err := errors.Join(errs...); err != nil {
		closeNetWorlds(worlds)
		return nil, 0, fmt.Errorf("join: %w", err)
	}
	return worlds, took, nil
}

// closeNetWorlds closes every world at once: each Close drains towards
// its peers, so they have to make progress together.
func closeNetWorlds(worlds []*enginenet.World) error {
	errs := make([]error, len(worlds))
	var wg sync.WaitGroup
	for r, w := range worlds {
		if w == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = w.Close()
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// runNetWorlds runs body on every rank of an in-process net world and
// returns when all bodies and teardown barriers are done.
func runNetWorlds(worlds []*enginenet.World, body func(c *enginenet.Comm)) error {
	errs := make([]error, len(worlds))
	var wg sync.WaitGroup
	for r, w := range worlds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = w.Run(body)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// probeNetExchange replays the op's all-to-alls on a fresh net world.
func probeNetExchange(m metrics, tr *tracer, logs [][]exchange) error {
	tr.op = -1
	id := tr.begin("probe.mpi.net.alltoall", -1)
	defer tr.end(id)
	worlds, joinTook, err := joinNetWorlds(len(logs))
	if err != nil {
		return err
	}
	m["mpi.net.join_ms"] = ms(float64(joinTook))
	health := func() mpi.Health {
		var sum mpi.Health
		for _, w := range worlds {
			h := w.Health()
			sum.Sent += h.Sent
			sum.Retransmits += h.Retransmits
		}
		return sum
	}
	var times []float64
	var counts [3]exchangeCounts
	g := newGate(len(logs))
	runErr := runNetWorlds(worlds, func(c *enginenet.Comm) {
		replayRank(c, g, logs[c.Rank()], &times, func(stage int) { counts[stage] = readCounts(health) })
	})
	if err := errors.Join(runErr, closeNetWorlds(worlds)); err != nil {
		return err
	}
	exchangeMetrics(m, "mpi.net", logs, times, counts)
	return nil
}

// probeModel times the tuner's objective: one model.SimulateCube of the
// workload's shape at the default parameters.
func probeModel(m metrics, tr *tracer, mach string, p, n int) error {
	mc, err := offt.DescribePlan(offt.WithGrid(n, n, n), offt.WithRanks(p))
	if err != nil {
		return err
	}
	mm, err := machine.ByName(mach)
	if err != nil {
		return err
	}
	spec := model.NewSpec(mc.Params)
	var res model.Result
	var before, after runtime.MemStats
	const reps = 7
	runtime.ReadMemStats(&before)
	eval := timeReps(tr, "model.eval", reps, nil, func() {
		if r, e := model.SimulateCube(mm, p, n, spec); e != nil {
			err = e
		} else {
			res = r
		}
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	m["model.eval_ms"] = ms(eval)
	m["model.allocs_per_eval"] = float64(after.Mallocs-before.Mallocs) / reps
	m["model.alloc_kb_per_eval"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / reps
	m["simnet.msgs_per_eval"] = float64(res.Net.EagerMsgs + res.Net.RendezvousMsgs)
	return nil
}
