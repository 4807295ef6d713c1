package pencil

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"offt/internal/fft"
	"offt/internal/machine"
	"offt/internal/mpi"
	"offt/internal/mpi/mem"
	enginenet "offt/internal/mpi/net"
	"offt/internal/pfft"
)

// TestPencilBitsPinned runs one Forward and one Backward per plan and
// compares FNV-64a hashes of every rank's outputs with the ones recorded
// while each exchange was written out by hand three times (forward tile
// functions, their inverses and the cost model). Every configuration of a
// grid computes the same bits — Baseline, NEW-0, NEW on its default tiling
// and NEW on a hand-set one whose phases differ in tile size and window —
// so one forward and one backward hash cover a grid. The 32³ row is the
// pencil-net-32-p4 benchmark plan (its parameters as offt.DescribePlan
// resolves them, through FromParams) and runs on a loopback net world too.
func TestPencilBitsPinned(t *testing.T) {
	grids := []struct {
		nx, ny, nz, pr, pc int
		hand               Params2D
		net                bool
		fwd, bwd           uint64
	}{
		{16, 16, 16, 2, 2, Params2D{TA: 3, WA: 2, TB: 2, WB: 3, F: 1}, false, 0x1c6a6c7462e382ee, 0x40a9b573e526aa10},
		{12, 10, 8, 2, 3, Params2D{TA: 4, WA: 1, TB: 1, WB: 2, F: 2}, false, 0x62412136150356b9, 0xef2e4296fea5dc3d},
		{7, 7, 7, 2, 3, Params2D{TA: 3, WA: 1, TB: 1, WB: 3, F: 2}, false, 0xeef20eea2f1db461, 0x00d01b77f798baf5},
		{8, 12, 4, 3, 2, Params2D{TA: 1, WA: 3, TB: 2, WB: 1, F: 1}, false, 0x5c53678a5bcf7f29, 0x797194181b613087},
		{32, 32, 32, 2, 2, Params2D{TA: 5, WA: 3, TB: 3, WB: 2, F: 1}, true, 0xe13092a5572a0049, 0x193d9230f63edf10},
	}
	// The benchmark plan's resolved public parameters.
	bench := pfft.Params{T: 4, W: 2, Px: 1, Pz: 1, Uy: 1, Uz: 1, Fy: 2, Fp: 2, Fu: 2, Fx: 2, Pr: 2}
	for _, gr := range grids {
		worlds := []struct {
			name string
			run  worldRun
		}{{"mem", memWorld}}
		if gr.net {
			worlds = append(worlds, struct {
				name string
				run  worldRun
			}{"net", netWorld})
		}
		g0, err := NewGrid2D(gr.nx, gr.ny, gr.nz, gr.pr, gr.pc, 0)
		if err != nil {
			t.Fatal(err)
		}
		def := Params2D{}
		if gr.net {
			def = FromParams(bench, g0)
		}
		configs := []struct {
			name string
			v    pfft.Variant
			prm  Params2D
		}{
			{"Baseline", pfft.Baseline, Params2D{}},
			{"NEW-0", pfft.NEW0, Params2D{}},
			{"NEW", pfft.NEW, def},
			{"NEW-hand", pfft.NEW, gr.hand},
		}
		for _, w := range worlds {
			for _, cfg := range configs {
				name := fmt.Sprintf("%s/%dx%dx%d-%dx%d/%s", w.name, gr.nx, gr.ny, gr.nz, gr.pr, gr.pc, cfg.name)
				t.Run(name, func(t *testing.T) {
					fwd, bwd := pencilBits(t, w.run, gr.nx, gr.ny, gr.nz, gr.pr, gr.pc, cfg.v, cfg.prm)
					if fwd != gr.fwd || bwd != gr.bwd {
						t.Errorf("bits %#x/%#x, want %#x/%#x", fwd, bwd, gr.fwd, gr.bwd)
					}
				})
			}
		}
	}
}

// TestPencilVirtualTimesPinned holds the cost model's job times to the
// nanosecond on a grid where every split is ragged, blocking and on two
// tilings (the default, and one whose phases differ in tile size, window
// and tile count), on two machine models.
func TestPencilVirtualTimesPinned(t *testing.T) {
	const nx, ny, nz, pr, pc = 9, 10, 11, 3, 2
	g0, err := NewGrid2D(nx, ny, nz, pr, pc, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		m    machine.Machine
		want [3]int64 // blocking, default tiling, hand-set tiling
	}{
		{"umd-cluster", machine.UMDCluster(), [3]int64{112366, 295041, 214139}},
		{"hopper", machine.Hopper(), [3]int64{19255, 62054, 42573}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var got [3]int64
			if got[0], err = SimulateGrid(c.m, pr, pc, nx, ny, nz); err != nil {
				t.Fatal(err)
			}
			if got[1], err = SimulateOverlappedGrid(c.m, pr, pc, nx, ny, nz, DefaultParams2D(g0)); err != nil {
				t.Fatal(err)
			}
			hand := Params2D{TA: 1, WA: 2, TB: 2, WB: 1, F: 3}
			if got[2], err = SimulateOverlappedGrid(c.m, pr, pc, nx, ny, nz, hand); err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Errorf("virtual ns %v, want %v", got, c.want)
			}
		})
	}
}

// TestPencilCallsPinned holds what a plan asks of its communicator and
// records, call by call, to a hash recorded on the same tree as
// TestPencilBitsPinned: every clock read, every post with its counts and
// buffer lengths, every Test and Wait with its request count, then the
// step events (name and tile) of the forward and of the backward
// execution, every rank in order. The grid is ragged and the NEW tiling
// differs between the phases in tile size and window.
func TestPencilCallsPinned(t *testing.T) {
	const nx, ny, nz, pr, pc = 12, 10, 8, 2, 3
	for _, c := range []struct {
		name string
		v    pfft.Variant
		prm  Params2D
		want uint64
	}{
		{"Baseline", pfft.Baseline, Params2D{}, 0x4b247f56bec16a8b},
		{"NEW-hand", pfft.NEW, Params2D{TA: 4, WA: 1, TB: 1, WB: 2, F: 2}, 0x03916d8096d956d0},
	} {
		t.Run(c.name, func(t *testing.T) {
			logs := make([]*callLog, pr*pc)
			err := memWorld(t, pr*pc, func(mc mpi.Comm) {
				lc := &callLog{Comm: mc, h: fnv.New64a()}
				logs[mc.Rank()] = lc
				g, err := NewGrid2D(nx, ny, nz, pr, pc, mc.Rank())
				if err != nil {
					panic(err)
				}
				plan, err := NewPlan(lc, g, c.v, c.prm, fft.Estimate)
				if err != nil {
					panic(err)
				}
				plan.EnableTrace()
				if _, _, err := plan.Forward(make([]complex128, g.InSize())); err != nil {
					panic(err)
				}
				lc.events(plan.Trace())
				if _, _, err := plan.Backward(make([]complex128, g.OutSize())); err != nil {
					panic(err)
				}
				lc.events(plan.Trace())
			})
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			for _, lc := range logs {
				binary.Write(h, binary.LittleEndian, lc.h.Sum64())
			}
			if got := h.Sum64(); got != c.want {
				t.Errorf("call log hash %#x, want %#x", got, c.want)
			}
		})
	}
}

// callLog is a communicator that hashes every call made to it, arguments
// but not results, on its way to the real one.
type callLog struct {
	mpi.Comm
	h hash.Hash64
}

func (c *callLog) Now() int64 {
	fmt.Fprintln(c.h, "Now")
	return c.Comm.Now()
}

func (c *callLog) Ialltoallv(send []complex128, sendCounts []int, recv []complex128, recvCounts []int) mpi.Request {
	fmt.Fprintln(c.h, "Ialltoallv", len(send), sendCounts, len(recv), recvCounts)
	return c.Comm.Ialltoallv(send, sendCounts, recv, recvCounts)
}

func (c *callLog) Test(reqs ...mpi.Request) bool {
	fmt.Fprintln(c.h, "Test", len(reqs))
	return c.Comm.Test(reqs...)
}

func (c *callLog) Wait(reqs ...mpi.Request) {
	fmt.Fprintln(c.h, "Wait", len(reqs))
	c.Comm.Wait(reqs...)
}

func (c *callLog) events(evs []pfft.StepEvent) {
	for _, e := range evs {
		fmt.Fprintln(c.h, "Step", e.Name, e.Tile)
	}
}

// worldRun runs body on every rank of a fresh p-rank world.
type worldRun func(t *testing.T, p int, body func(c mpi.Comm)) error

func memWorld(_ *testing.T, p int, body func(c mpi.Comm)) error {
	return mem.NewWorld(p).Run(func(c *mem.Comm) { body(c) })
}

// netWorld forms the p ranks over TCP loopback inside this process, on a
// port the kernel picks; rank 0 is handed the live rendezvous listener.
func netWorld(t *testing.T, p int, body func(c mpi.Comm)) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
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
			w, err := enginenet.Join(cfg)
			if err != nil {
				errs[r] = err
				return
			}
			defer w.Close()
			errs[r] = w.Run(func(c *enginenet.Comm) { body(c) })
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// pencilBits runs Forward on the z-pencils of one random cube and Backward
// on the x-pencils of another, on one plan per rank, and hashes the
// outputs, ranks in order.
func pencilBits(t *testing.T, run worldRun, nx, ny, nz, pr, pc int, v pfft.Variant, prm Params2D) (fwd, bwd uint64) {
	t.Helper()
	p := pr * pc
	fullIn, fullSpec := randCube(nx*ny*nz, 41), randCube(nx*ny*nz, 43)
	outs, backs := make([][]complex128, p), make([][]complex128, p)
	err := run(t, p, func(c mpi.Comm) {
		g, err := NewGrid2D(nx, ny, nz, pr, pc, c.Rank())
		if err != nil {
			panic(err)
		}
		plan, err := NewPlan(c, g, v, prm, fft.Estimate)
		if err != nil {
			panic(err)
		}
		defer plan.Close()
		out, _, err := plan.Forward(ScatterPencil(fullIn, g))
		if err != nil {
			panic(err)
		}
		outs[c.Rank()] = append([]complex128(nil), out...)
		spec := make([]complex128, g.OutSize())
		ScatterSpectrumInto(spec, fullSpec, g)
		back, _, err := plan.Backward(spec)
		if err != nil {
			panic(err)
		}
		backs[c.Rank()] = append([]complex128(nil), back...)
	})
	if err != nil {
		t.Fatal(err)
	}
	return hashBits(outs), hashBits(backs)
}

// hashBits is the FNV-64a hash of the pencils' elements in order, each as
// the little-endian IEEE-754 bits of its real then its imaginary part.
func hashBits(pencils [][]complex128) uint64 {
	h := fnv.New64a()
	var b [16]byte
	for _, s := range pencils {
		for _, x := range s {
			binary.LittleEndian.PutUint64(b[:8], math.Float64bits(real(x)))
			binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(x)))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}
