package net

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"offt/internal/fft"
	"offt/internal/layout"
	"offt/internal/mpi"
	"offt/internal/mpi/envelope"
	"offt/internal/mpi/fault"
	"offt/internal/mpi/mem"
	"offt/internal/mpi/transport"
	"offt/internal/pencil"
	"offt/internal/pfft"
)

// coordListener binds the coordinator rendezvous listener on a free
// loopback port. The live listener is handed to rank 0's Config
// (CoordListener) rather than closed and rebound — releasing the port
// first races against the kernel reassigning it as an ephemeral port to
// one of the world's own outbound connections.
func coordListener(t *testing.T) (net.Listener, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("reserve port: %v", err)
	}
	return ln, ln.Addr().String()
}

// launch forms a p-rank world with one World per goroutine (the in-process
// stand-in for p OS processes — the TCP mesh over loopback is real) and
// runs body on every rank. Returns the per-rank Run errors.
func launch(t *testing.T, p int, opts func(rank int) []transport.Option, body func(c *Comm)) []error {
	t.Helper()
	return launchWorlds(t, p, opts, func(_ *World, c *Comm) { body(c) })
}

// launchWorlds is launch for a body that also needs its rank's World.
func launchWorlds(t *testing.T, p int, opts func(rank int) []transport.Option, body func(w *World, c *Comm)) []error {
	t.Helper()
	coordLn, coord := coordListener(t)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			var o []transport.Option
			if opts != nil {
				o = opts(rank)
			}
			cfg := Config{Rank: rank, Size: p, Coord: coord, JoinTimeout: 10 * time.Second}
			if rank == 0 {
				cfg.CoordListener = coordLn
			}
			w, err := Join(cfg, o...)
			if err != nil {
				errs[rank] = err
				return
			}
			defer w.Close()
			errs[rank] = w.Run(func(c *Comm) { body(w, c) })
		}(r)
	}
	wg.Wait()
	return errs
}

func checkErrs(t *testing.T, errs []error) {
	t.Helper()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// testCounts is an uneven count matrix with zero blocks mixed in.
func testCounts(p int) [][]int {
	counts := make([][]int, p)
	for s := 0; s < p; s++ {
		counts[s] = make([]int, p)
		for d := 0; d < p; d++ {
			counts[s][d] = ((s+1)*(d+2) + s*d) % 5
		}
	}
	return counts
}

// blockElem is the deterministic payload element k of the src→dst block.
func blockElem(src, dst, k int) complex128 {
	return complex(float64(src*1000+dst*100+k), float64(src-dst)+0.25)
}

func buildSend(rank int, counts [][]int) ([]complex128, []int) {
	p := len(counts)
	sc := make([]int, p)
	var send []complex128
	for d := 0; d < p; d++ {
		sc[d] = counts[rank][d]
		for k := 0; k < sc[d]; k++ {
			send = append(send, blockElem(rank, d, k))
		}
	}
	return send, sc
}

func wantRecv(rank int, counts [][]int) ([]complex128, []int) {
	p := len(counts)
	rc := make([]int, p)
	var want []complex128
	for s := 0; s < p; s++ {
		rc[s] = counts[s][rank]
		for k := 0; k < rc[s]; k++ {
			want = append(want, blockElem(s, rank, k))
		}
	}
	return want, rc
}

// exchanges is the full schedule matrix: window and node size chosen so
// that windowed (window < p-1) and hier (2 nodes of 2) genuinely exercise
// their protocols at p = 4 instead of degenerating to pairwise.
func exchanges() map[string]mpi.Exchange {
	return map[string]mpi.Exchange{
		"pairwise": {Alg: mpi.CommPairwise},
		"bruck":    {Alg: mpi.CommBruck},
		"hier":     {Alg: mpi.CommHier, NodeSize: 2},
		"windowed": {Alg: mpi.CommWindowed, Window: 2},
	}
}

// TestAlltoallvSchedules runs every exchange schedule over the loopback
// TCP mesh and checks the receive buffers element-for-element against the
// analytic expectation AND bit-for-bit against the mem engine running the
// identical collective.
func TestAlltoallvSchedules(t *testing.T) {
	const p = 4
	counts := testCounts(p)
	for name, ex := range exchanges() {
		ex := ex
		t.Run(name, func(t *testing.T) {
			collect := func(c mpi.Comm) []complex128 {
				mpi.SetExchange(c, ex)
				rank := c.Rank()
				send, sc := buildSend(rank, counts)
				want, rc := wantRecv(rank, counts)
				recv := make([]complex128, len(want))
				c.Wait(c.Ialltoallv(send, sc, recv, rc))
				return recv
			}

			netRecv := make([][]complex128, p)
			errs := launch(t, p, nil, func(c *Comm) {
				netRecv[c.Rank()] = collect(c)
			})
			checkErrs(t, errs)

			memRecv := make([][]complex128, p)
			w := mem.NewWorld(p)
			if err := w.Run(func(c *mem.Comm) {
				memRecv[c.Rank()] = collect(c)
			}); err != nil {
				t.Fatalf("mem world: %v", err)
			}

			for r := 0; r < p; r++ {
				want, _ := wantRecv(r, counts)
				for i := range want {
					if netRecv[r][i] != want[i] {
						t.Fatalf("rank %d element %d: net %v, want %v", r, i, netRecv[r][i], want[i])
					}
					if netRecv[r][i] != memRecv[r][i] {
						t.Fatalf("rank %d element %d: net %v != mem %v", r, i, netRecv[r][i], memRecv[r][i])
					}
				}
			}
		})
	}
}

// TestWorldSize1 exercises the degenerate single-process world: no
// coordinator, no mesh, self-copy collectives only.
func TestWorldSize1(t *testing.T) {
	w, err := Join(Config{Rank: 0, Size: 1})
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	defer w.Close()
	err = w.Run(func(c *Comm) {
		send := []complex128{1 + 2i, 3 + 4i}
		recv := make([]complex128, 2)
		c.Alltoallv(send, []int{2}, recv, []int{2})
		if recv[0] != send[0] || recv[1] != send[1] {
			panic(fmt.Sprintf("self exchange: got %v", recv))
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestBarrier checks the dissemination barrier's ordering guarantee: no
// rank observes fewer than p·k increments after the k-th barrier (every
// rank incremented before anyone left), and no rank can be more than one
// iteration ahead.
func TestBarrier(t *testing.T) {
	const p, iters = 4, 5
	var ctr atomic.Int64
	errs := launch(t, p, nil, func(c *Comm) {
		for k := 0; k < iters; k++ {
			ctr.Add(1)
			c.Barrier()
			got := ctr.Load()
			lo, hi := int64(p*(k+1)), int64(p*(k+2)-1)
			if got < lo || got > hi {
				panic(fmt.Sprintf("after barrier %d: counter %d outside [%d, %d]", k, got, lo, hi))
			}
		}
	})
	checkErrs(t, errs)
}

// TestChaosRecovery drives repeated collectives through an injected fault
// mix and requires exact results plus evidence that the recovery protocol
// actually ran. The Force* knobs make the plan deterministic: every
// message's first delivery attempt is dropped and its second corrupted,
// so every single message must survive two recovery cycles (retransmit
// after the drop, checksum rejection + retransmit after the corruption).
func TestChaosRecovery(t *testing.T) {
	const p, rounds = 4, 3
	plan := &fault.Plan{
		Seed:                 7,
		DupRate:              0.05,
		JitterNs:             100_000,
		ForceDropAttempts:    1,
		ForceCorruptAttempts: 2,
	}
	counts := testCounts(p)
	var healthMu sync.Mutex
	var total mpi.Health
	opts := func(rank int) []transport.Option {
		return []transport.Option{transport.WithFaults(plan), transport.WithRetransmitTimeout(2 * time.Millisecond)}
	}
	errs := launch(t, p, opts, func(c *Comm) {
		rank := c.Rank()
		send, sc := buildSend(rank, counts)
		want, rc := wantRecv(rank, counts)
		for round := 0; round < rounds; round++ {
			recv := make([]complex128, len(want))
			c.Wait(c.Ialltoallv(send, sc, recv, rc))
			for i := range want {
				if recv[i] != want[i] {
					panic(fmt.Sprintf("round %d element %d: got %v, want %v", round, i, recv[i], want[i]))
				}
			}
		}
		h := c.TransportHealth()
		healthMu.Lock()
		total.DropsInjected += h.DropsInjected
		total.CorruptionsInjected += h.CorruptionsInjected
		total.CorruptionsDetected += h.CorruptionsDetected
		total.Retransmits += h.Retransmits
		total.Dedups += h.Dedups
		total.Delivered += h.Delivered
		healthMu.Unlock()
	})
	checkErrs(t, errs)
	if total.Delivered == 0 {
		t.Fatal("no deliveries recorded")
	}
	if total.DropsInjected == 0 || total.CorruptionsInjected == 0 {
		t.Fatalf("forced faults not injected: %d drops, %d corruptions", total.DropsInjected, total.CorruptionsInjected)
	}
	if total.Retransmits == 0 {
		t.Errorf("injected faults (%d drops, %d corruptions) but zero retransmits", total.DropsInjected, total.CorruptionsInjected)
	}
	if total.CorruptionsDetected == 0 {
		t.Errorf("%d corruptions injected, none detected by checksum", total.CorruptionsInjected)
	}
}

// TestPeerLossFailsSurvivors kills one rank's connections under a live
// world and requires the survivors to surface a prompt *PeerError world
// failure instead of hanging in the collective.
func TestPeerLossFailsSurvivors(t *testing.T) {
	const p = 3
	coordLn, coord := coordListener(t)
	worlds := make([]*World, p)
	joinErrs := make([]error, p)
	var jwg sync.WaitGroup
	for r := 0; r < p; r++ {
		jwg.Add(1)
		go func(rank int) {
			defer jwg.Done()
			cfg := Config{Rank: rank, Size: p, Coord: coord, JoinTimeout: 10 * time.Second}
			if rank == 0 {
				cfg.CoordListener = coordLn
			}
			worlds[rank], joinErrs[rank] = Join(cfg, transport.WithHangTimeout(5*time.Second))
		}(r)
	}
	jwg.Wait()
	for r, err := range joinErrs {
		if err != nil {
			t.Fatalf("rank %d join: %v", r, err)
		}
	}
	defer func() {
		for _, w := range worlds {
			w.Close()
		}
	}()

	counts := testCounts(p)
	runErrs := make([]error, p-1)
	var wg sync.WaitGroup
	start := time.Now()
	for r := 0; r < p-1; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			runErrs[rank] = worlds[rank].Run(func(c *Comm) {
				send, sc := buildSend(rank, counts)
				want, rc := wantRecv(rank, counts)
				recv := make([]complex128, len(want))
				c.Wait(c.Ialltoallv(send, sc, recv, rc))
			})
		}(r)
	}
	// Rank p-1 "dies" without ever entering the collective: its process
	// shutdown tears the TCP connections down under the survivors.
	worlds[p-1].Close()
	wg.Wait()
	elapsed := time.Since(start)

	for r := 0; r < p-1; r++ {
		if runErrs[r] == nil {
			t.Fatalf("rank %d: Run succeeded despite a dead peer", r)
		}
		var pe *PeerError
		if !errors.As(runErrs[r], &pe) {
			t.Fatalf("rank %d: error %v (%T) is not a *PeerError", r, runErrs[r], runErrs[r])
		}
		if pe.Peer != p-1 {
			t.Errorf("rank %d: blamed peer %d, want %d", r, pe.Peer, p-1)
		}
	}
	// "Prompt" means the EOF propagated, not the 5s hang timeout.
	if elapsed > 3*time.Second {
		t.Errorf("survivors took %v to fail; the conn-loss path did not fire", elapsed)
	}
}

// failsOnFrame has rank 0 of a 2-rank world with no fault plan put one
// hand-made frame on its connection to rank 1, then runs a collective that
// rank 0 never completes: rank 1 cannot finish, only fail. It returns rank
// 1's Run error and final health, and checks the failure was prompt (the
// frame, not the hang timeout).
func failsOnFrame(t *testing.T, frame []byte) (error, mpi.Health) {
	t.Helper()
	const p = 2
	counts := testCounts(p)
	var health mpi.Health
	failed := make(chan struct{})
	start := time.Now()
	errs := launchWorlds(t, p, nil, func(w *World, c *Comm) {
		rank := c.Rank()
		if rank == 0 {
			w.wire.peers[1].enqueue(outFrame{b: frame})
			<-failed
			return
		}
		defer func() {
			health = c.TransportHealth()
			close(failed)
		}()
		send, sc := buildSend(rank, counts)
		want, rc := wantRecv(rank, counts)
		c.Alltoallv(send, sc, make([]complex128, len(want)), rc)
	})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("rank 1 took %v to fail; the frame did not fail it", elapsed)
	}
	return errs[1], health
}

// TestCorruptFrameWithoutPlanFailsWorld: with no fault plan a sender writes
// a frame once and keeps no copy, so a frame that fails its checksum can
// never be recovered; the receiving rank must fail its world at once with
// a *PeerError naming the link, not sit out the hang timeout.
func TestCorruptFrameWithoutPlanFailsWorld(t *testing.T) {
	env := envelope.Envelope{ID: 1 << 40, Seq: 1 << 40, Src: 0, Dst: 1, Tag: 1 << 30, Data: []complex128{1, 2, 3}}
	env.Seal()
	env.Data = fault.CorruptCopy(env.Data, 1)
	err, health := failsOnFrame(t, envelope.AppendData(nil, &env))
	var pe *PeerError
	if !errors.As(err, &pe) || pe.Peer != 0 || !errors.Is(err, transport.ErrCorruptFrame) {
		t.Fatalf("rank 1: error %v (%T), want a *PeerError blaming rank 0 with ErrCorruptFrame", err, err)
	}
	if health.CorruptionsDetected != 1 {
		t.Errorf("rank 1 counted %d corrupted deliveries, want 1", health.CorruptionsDetected)
	}
}

// TestBadHeaderFailsWorld: the ranks in a frame come off the wire, and
// Decode only rejects negative ones. A data frame whose source is not the
// peer whose connection carried it (out of range, or the receiver itself)
// or whose destination is another rank, and an ack signed by a third rank,
// must fail the receiving world with a *PeerError blaming that connection
// — not index a per-rank table with them.
func TestBadHeaderFailsWorld(t *testing.T) {
	data := func(src, dst int) []byte {
		env := envelope.Envelope{ID: 1 << 40, Seq: 1, Src: src, Dst: dst, Tag: 1 << 30, Data: []complex128{1, 2, 3}}
		env.Seal()
		return envelope.AppendData(nil, &env)
	}
	for name, frame := range map[string][]byte{
		"source out of range":    data(7, 1),
		"source is the receiver": data(1, 1),
		"destination elsewhere":  data(0, 0),
		"ack from a third rank":  envelope.AppendAck(nil, 1, 7),
	} {
		t.Run(name, func(t *testing.T) {
			err, health := failsOnFrame(t, frame)
			var pe *PeerError
			if !errors.As(err, &pe) || pe.Peer != 0 || !errors.Is(err, envelope.ErrBadHeader) {
				t.Fatalf("rank 1: error %v (%T), want a *PeerError blaming rank 0 with ErrBadHeader", err, err)
			}
			if health.Delivered != 0 {
				t.Errorf("rank 1 delivered %d messages, want none", health.Delivered)
			}
		})
	}
}

// TestBootstrapRejectsMismatchedWorld: a joiner carrying the wrong world
// id must be rejected by the coordinator, and the whole bootstrap must
// fail cleanly on both sides.
func TestBootstrapRejectsMismatchedWorld(t *testing.T) {
	coordLn, coord := coordListener(t)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		w, err := Join(Config{Rank: 0, Size: 2, Coord: coord, World: "alpha", JoinTimeout: 5 * time.Second, CoordListener: coordLn})
		if w != nil {
			w.Close()
		}
		errs[0] = err
	}()
	go func() {
		defer wg.Done()
		w, err := Join(Config{Rank: 1, Size: 2, Coord: coord, World: "beta", JoinTimeout: 5 * time.Second})
		if w != nil {
			w.Close()
		}
		errs[1] = err
	}()
	wg.Wait()
	for r, err := range errs {
		if err == nil {
			t.Fatalf("rank %d: bootstrap succeeded across mismatched worlds", r)
		}
	}
}

func randCube(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	full := make([]complex128, n)
	for i := range full {
		full[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return full
}

// TestForwardMatchesMemSlab runs the full pfft slab pipeline over the net
// engine for every exchange schedule and requires each rank's output slab
// to be bit-identical to the mem engine's.
func TestForwardMatchesMemSlab(t *testing.T) {
	const p, n = 4, 16
	full := randCube(n*n*n, 42)
	for _, alg := range mpi.CommAlgs() {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			body := func(c mpi.Comm, rank int) []complex128 {
				g, err := layout.NewGrid(n, n, n, p, rank)
				if err != nil {
					panic(err)
				}
				prm := pfft.DefaultParams(g)
				prm.Comm = alg
				out, _, err := pfft.Forward3D(c, g, layout.ScatterX(full, g), pfft.NEW, prm, fft.Estimate)
				if err != nil {
					panic(err)
				}
				return out
			}

			netOuts := make([][]complex128, p)
			errs := launch(t, p, nil, func(c *Comm) {
				netOuts[c.Rank()] = body(c, c.Rank())
			})
			checkErrs(t, errs)

			memOuts := make([][]complex128, p)
			w := mem.NewWorld(p)
			if err := w.Run(func(c *mem.Comm) {
				memOuts[c.Rank()] = body(c, c.Rank())
			}); err != nil {
				t.Fatalf("mem world: %v", err)
			}

			for r := 0; r < p; r++ {
				if len(netOuts[r]) != len(memOuts[r]) {
					t.Fatalf("rank %d: net %d elements, mem %d", r, len(netOuts[r]), len(memOuts[r]))
				}
				for i := range netOuts[r] {
					if netOuts[r][i] != memOuts[r][i] {
						t.Fatalf("rank %d element %d: net %v != mem %v", r, i, netOuts[r][i], memOuts[r][i])
					}
				}
			}
		})
	}
}

// TestForwardMatchesMemPencil is the same cross-engine bit-identity check
// on the 2-D pencil decomposition (2×2 process grid).
func TestForwardMatchesMemPencil(t *testing.T) {
	const pr, pc, n = 2, 2, 16
	const p = pr * pc
	full := randCube(n*n*n, 42)
	for _, alg := range mpi.CommAlgs() {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			body := func(c mpi.Comm, rank int) []complex128 {
				g, err := pencil.NewGrid2D(n, n, n, pr, pc, rank)
				if err != nil {
					panic(err)
				}
				prm := pencil.DefaultParams2D(g)
				prm.Comm = alg
				pl, err := pencil.NewPlan(c, g, pfft.NEW, prm, fft.Estimate)
				if err != nil {
					panic(err)
				}
				defer pl.Close()
				slab := make([]complex128, g.InSize())
				pencil.ScatterPencilInto(slab, full, g)
				out, _, err := pl.Forward(slab)
				if err != nil {
					panic(err)
				}
				return append([]complex128(nil), out...)
			}

			netOuts := make([][]complex128, p)
			errs := launch(t, p, nil, func(c *Comm) {
				netOuts[c.Rank()] = body(c, c.Rank())
			})
			checkErrs(t, errs)

			memOuts := make([][]complex128, p)
			w := mem.NewWorld(p)
			if err := w.Run(func(c *mem.Comm) {
				memOuts[c.Rank()] = body(c, c.Rank())
			}); err != nil {
				t.Fatalf("mem world: %v", err)
			}

			for r := 0; r < p; r++ {
				for i := range netOuts[r] {
					if netOuts[r][i] != memOuts[r][i] {
						t.Fatalf("rank %d element %d: net %v != mem %v", r, i, netOuts[r][i], memOuts[r][i])
					}
				}
			}
		})
	}
}
