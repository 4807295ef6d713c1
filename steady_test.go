package offt

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"offt/internal/fft"
	"offt/internal/layout"
	"offt/internal/mpi"
	"offt/internal/mpi/mem"
	enginenet "offt/internal/mpi/net"
	"offt/internal/pencil"
	"offt/internal/pfft"
)

// steadyState measures what one collective operation of a p-rank world
// allocates once everything lazy has happened. run executes body on every
// rank; setup builds the rank's plan and returns the operation. Rank 0
// drives testing.AllocsPerRun (process-wide counts, so every rank's
// allocations and the transport's are in), releasing the other ranks into
// each run over channels. Returned are objects and bytes per run — the
// lower of two measurements each, since how many payloads the pipeline has
// in flight at once wanders and a new high-water mark costs the arena one
// refill — and the collectives one rank posted per run.
func steadyState(t *testing.T, p int, run func(body func(c mpi.Comm)) error, setup func(c mpi.Comm) func()) (allocs, bytes, collectives float64) {
	t.Helper()
	const runs = 10
	start := make([]chan struct{}, p)
	for r := range start {
		start[r] = make(chan struct{})
	}
	ready := make(chan struct{}, p)
	done := make(chan struct{}, p)
	// A collection in the window would drain the arena's pools and charge
	// the refill to the transform.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	err := run(func(c mpi.Comm) {
		counter := &postCounter{Comm: c}
		op := setup(counter)
		op() // lazy growth, arena fill
		op()
		if c.Rank() != 0 {
			ready <- struct{}{}
			for range start[c.Rank()] {
				op()
				done <- struct{}{}
			}
			return
		}
		for r := 1; r < p; r++ {
			<-ready
		}
		all := func() {
			for r := 1; r < p; r++ {
				start[r] <- struct{}{}
			}
			op()
			for r := 1; r < p; r++ {
				<-done
			}
		}
		// AllocsPerRun measures on one P, and a sync.Pool forgets what it
		// holds when the P count changes: switch first, then let the
		// arena reach the pipeline's high-water mark of payloads in flight.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		for i := 0; i < runs; i++ {
			all()
		}
		for round := 0; round < 2; round++ {
			counter.posts = 0
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			a := testing.AllocsPerRun(runs, all)
			runtime.ReadMemStats(&after)
			// AllocsPerRun makes one warm-up call of its own.
			b := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
			if round == 0 || a < allocs {
				allocs = a
			}
			if round == 0 || b < bytes {
				bytes = b
			}
			collectives = float64(counter.posts) / (runs + 1)
		}
		for r := 1; r < p; r++ {
			close(start[r])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return allocs, bytes, collectives
}

// postCounter counts the collectives a plan posts. It forwards the
// optional engine capabilities the plans look for, so the plan under it
// behaves as on the bare communicator.
type postCounter struct {
	mpi.Comm
	posts int
}

func (c *postCounter) Ialltoallv(send []complex128, sc []int, recv []complex128, rc []int) mpi.Request {
	c.posts++
	return c.Comm.Ialltoallv(send, sc, recv, rc)
}

func (c *postCounter) Alltoallv(send []complex128, sc []int, recv []complex128, rc []int) {
	c.posts++
	c.Comm.Alltoallv(send, sc, recv, rc)
}

func (c *postCounter) SetExchange(ex mpi.Exchange) { c.Comm.(mpi.ExchangeSetter).SetExchange(ex) }
func (c *postCounter) WaitDeadline(reqs ...mpi.Request) error {
	return c.Comm.(mpi.DeadlineWaiter).WaitDeadline(reqs...)
}
func (c *postCounter) TransportHealth() mpi.Health {
	return c.Comm.(mpi.HealthReporter).TransportHealth()
}

var (
	_ mpi.ExchangeSetter = (*postCounter)(nil)
	_ mpi.DeadlineWaiter = (*postCounter)(nil)
	_ mpi.HealthReporter = (*postCounter)(nil)
)

// steadyN is the gate's grid: 64³, the serving point, 4 MiB of data.
const steadyN = 64

// steadyPlan is what pfft.Plan and pencil.Plan have in common.
type steadyPlan interface {
	Forward(slab []complex128) ([]complex128, pfft.Breakdown, error)
	Backward(spectrum []complex128) ([]complex128, pfft.Breakdown, error)
}

// transformOp returns one transform in the given direction on a reusable
// plan, between caller-owned buffers of the plan's own sizes.
func transformOp(plan steadyPlan, err error, inSize, outSize int, backward bool) func() {
	if err != nil {
		panic(err)
	}
	in, out := make([]complex128, inSize), make([]complex128, outSize)
	return func() {
		var err error
		if backward {
			_, _, err = plan.Backward(out)
		} else {
			_, _, err = plan.Forward(in)
		}
		if err != nil {
			panic(err)
		}
	}
}

// slabOp and pencilOp build one rank's reusable plan and return a
// transform in the given direction on it.
func slabOp(p int, backward bool) func(c mpi.Comm) func() {
	return func(c mpi.Comm) func() {
		g, err := layout.NewGrid(steadyN, steadyN, steadyN, p, c.Rank())
		if err != nil {
			panic(err)
		}
		plan, err := pfft.NewPlan(c, g, pfft.NEW, pfft.DefaultParams(g), fft.Estimate)
		return transformOp(plan, err, g.InSize(), g.OutSize(), backward)
	}
}

func pencilOp(pr, pc int, backward bool) func(c mpi.Comm) func() {
	return func(c mpi.Comm) func() {
		g, err := pencil.NewGrid2D(steadyN, steadyN, steadyN, pr, pc, c.Rank())
		if err != nil {
			panic(err)
		}
		plan, err := pencil.NewPlan(c, g, pfft.NEW, pencil.DefaultParams2D(g), fft.Estimate)
		return transformOp(plan, err, g.InSize(), g.OutSize(), backward)
	}
}

// checkSteady applies the two gates of ROADMAP item 3: no allocation per
// transform — every collective's request comes off its rank's free list,
// and the transport's buffers out of the arena — and less than 1 % of the
// grid's bytes allocated per transform.
func checkSteady(t *testing.T, allocs, bytes, collectives float64) {
	t.Helper()
	const gridBytes = 16 * steadyN * steadyN * steadyN
	t.Logf("%.0f allocations, %.1f KiB (%.2f %% of the grid) per transform; %.0f collectives per rank",
		allocs, bytes/1024, 100*bytes/gridBytes, collectives)
	if collectives == 0 {
		t.Fatal("the plan posted no collective")
	}
	if allocs > 0 {
		t.Errorf("%.1f allocations per transform, want 0", allocs)
	}
	if bytes >= gridBytes/100 {
		t.Errorf("%.0f bytes allocated per transform, want under 1 %% of the grid's %d", bytes, gridBytes)
	}
}

// TestMemPlanSteadyStateAllocs extends the plan-reuse allocation gate from
// the self communicator to the engine that serves traffic: mem worlds of 2
// and 4 ranks, slab and pencil, forward and backward.
func TestMemPlanSteadyStateAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race-instrumented runtime allocates on its own")
	}
	for _, p := range []int{2, 4} {
		pr, pc, err := pencil.DefaultProcGrid(steadyN, steadyN, steadyN, p)
		if err != nil {
			t.Fatal(err)
		}
		for name, setup := range map[string]func(backward bool) func(c mpi.Comm) func(){
			"slab":   func(b bool) func(c mpi.Comm) func() { return slabOp(p, b) },
			"pencil": func(b bool) func(c mpi.Comm) func() { return pencilOp(pr, pc, b) },
		} {
			for _, backward := range []bool{false, true} {
				dir := map[bool]string{false: "forward", true: "backward"}[backward]
				t.Run(fmt.Sprintf("%s/p%d/%s", name, p, dir), func(t *testing.T) {
					w := mem.NewWorld(p)
					run := func(body func(c mpi.Comm)) error {
						return w.Run(func(c *mem.Comm) { body(c) })
					}
					allocs, bytes, collectives := steadyState(t, p, run, setup(backward))
					checkSteady(t, allocs, bytes, collectives)
				})
			}
		}
	}
}

// TestNetPlanSteadyStateAllocs applies the same gate to a net-engine world
// of four ranks joined over TCP loopback inside this process.
func TestNetPlanSteadyStateAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race-instrumented runtime allocates on its own")
	}
	const p = 4
	pr, pc, err := pencil.DefaultProcGrid(steadyN, steadyN, steadyN, p)
	if err != nil {
		t.Fatal(err)
	}
	for name, setup := range map[string]func(c mpi.Comm) func(){
		"slab/forward":    slabOp(p, false),
		"slab/backward":   slabOp(p, true),
		"pencil/forward":  pencilOp(pr, pc, false),
		"pencil/backward": pencilOp(pr, pc, true),
	} {
		t.Run(name, func(t *testing.T) {
			worlds := joinLoopback(t, p)
			run := func(body func(c mpi.Comm)) error {
				errs := make([]error, p)
				var wg sync.WaitGroup
				for r, w := range worlds {
					wg.Add(1)
					go func() {
						defer wg.Done()
						errs[r] = w.Run(func(c *enginenet.Comm) { body(c) })
					}()
				}
				wg.Wait()
				return errors.Join(errs...)
			}
			allocs, bytes, collectives := steadyState(t, p, run, setup)
			checkSteady(t, allocs, bytes, collectives)
		})
	}
}

// joinLoopback forms one net-engine world of p ranks inside this process
// over TCP loopback, on a port the kernel picks, closed with the test.
func joinLoopback(t *testing.T, p int) []*enginenet.World {
	t.Helper()
	// Rank 0 is handed the live rendezvous listener: closing it and
	// rebinding the port would race the kernel giving the port away.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	worlds := make([]*enginenet.World, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := enginenet.Config{Rank: r, Size: p, Coord: ln.Addr().String(), JoinTimeout: 15 * time.Second}
			if r == 0 {
				cfg.CoordListener = ln
			}
			worlds[r], errs[r] = enginenet.Join(cfg)
		}()
	}
	wg.Wait()
	t.Cleanup(func() {
		// Each Close drains towards its peers, so they close together.
		var wg sync.WaitGroup
		for _, w := range worlds {
			if w != nil {
				wg.Add(1)
				go func() { defer wg.Done(); w.Close() }()
			}
		}
		wg.Wait()
	})
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	return worlds
}
