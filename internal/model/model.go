// Package model implements the cost-model engine: a pfft.Engine whose
// kernels charge calibrated virtual time (from a machine.Machine) to the
// rank's simulated clock instead of doing arithmetic, while communication
// goes through the simulated fabric (mpi/sim). Together with the identical
// control flow of the shared algorithm body, this reproduces the paper's
// performance phenomena at paper scale without allocating paper-scale
// arrays:
//
//   - 1-D FFT cost ∝ N·log₂N per row;
//   - Pack/Unpack cost with a cache-fit model over the sub-tile working
//     set: a fixed per-sub-tile overhead penalizes tiny sub-tiles and a
//     miss penalty ramps up once the sub-tile overflows the L2 — giving
//     the loop-tiling parameters (Px, Pz, Uy, Uz) the sweet spot the
//     auto-tuner hunts for (§3.4);
//   - the §3.5 fast transpose is cheaper per element;
//   - every MPI call charges its CPU overhead, so excessive Test
//     frequencies cost real time (§3.3).
package model

import (
	"math"

	"offt/internal/layout"
	"offt/internal/machine"
	"offt/internal/mpi"
	"offt/internal/mpi/sim"
	"offt/internal/pfft"
)

// thTransposeFactor is how much slower TH's plain memory rearrangement is
// than the optimized (FFTW-guru-like) transpose, per element.
const thTransposeFactor = 1.7

// Engine charges model costs for one simulated rank.
type Engine struct {
	g    layout.Grid
	c    *sim.Comm
	m    machine.Machine
	cnts struct{ send, recv []int }
}

var _ pfft.Engine = (*Engine)(nil)

// NewEngine builds the cost-model engine for one rank of a simulated world.
func NewEngine(m machine.Machine, g layout.Grid, c *sim.Comm) *Engine {
	e := &Engine{g: g, c: c, m: m}
	e.cnts.send = make([]int, g.P)
	e.cnts.recv = make([]int, g.P)
	return e
}

// Grid returns the rank's geometry.
func (e *Engine) Grid() layout.Grid { return e.g }

// Comm returns the rank's simulated communicator.
func (e *Engine) Comm() mpi.Comm { return e.c }

// fftRowNs returns the model cost of one length-n 1-D FFT.
func (e *Engine) fftRowNs(n int) float64 {
	if n < 2 {
		return e.m.Cmp.FFTNsPerUnit
	}
	return e.m.Cmp.FFTNsPerUnit * float64(n) * math.Log2(float64(n))
}

// cacheFactor returns the Pack/Unpack per-element multiplier for a sub-tile
// working set of the given size: 1 when it fits comfortably (≤ L2/2),
// ramping linearly to MissPenaltyFactor at ≥ 4·L2.
func (e *Engine) cacheFactor(bytes int64) float64 {
	c := e.m.Cmp.CacheBytes
	lo := c / 2
	hi := 4 * c
	switch {
	case bytes <= lo:
		return 1
	case bytes >= hi:
		return e.m.Cmp.MissPenaltyFactor
	default:
		frac := float64(bytes-lo) / float64(hi-lo)
		return 1 + (e.m.Cmp.MissPenaltyFactor-1)*frac
	}
}

// copyCost returns the model cost of packing/unpacking `elems` elements as
// one sub-tile.
func (e *Engine) copyCost(elems int) int64 {
	bytes := int64(elems) * mpi.Elem16
	perElem := e.m.Cmp.MemNsPerElem * e.cacheFactor(bytes)
	fixed := e.m.Cmp.SubtileOverheadNs + e.m.Cmp.PackPerDestNs*float64(e.g.P)
	return int64(fixed + float64(elems)*perElem)
}

// FFTz charges the cost of xc·Ny transforms of length Nz.
func (e *Engine) FFTz() {
	rows := e.g.XC() * e.g.Ny
	e.c.Advance(int64(float64(rows) * e.fftRowNs(e.g.Nz)))
}

// Transpose charges the rearrangement cost of the whole slab.
func (e *Engine) Transpose(fast, optimized bool) {
	per := e.m.Cmp.TransposeNsPerElem
	if fast {
		per = e.m.Cmp.TransposeFastNsPerElem
	} else if !optimized {
		per *= thTransposeFactor
	}
	e.c.Advance(int64(float64(e.g.InSize()) * per))
}

// FFTySub charges (z1−z0)·(x1−x0) transforms of length Ny.
func (e *Engine) FFTySub(fast bool, zt0, z0, z1, x0, x1 int) {
	rows := (z1 - z0) * (x1 - x0)
	e.c.Advance(int64(float64(rows) * e.fftRowNs(e.g.Ny)))
}

// PackSub charges the loop-tiled pack cost of one sub-tile.
func (e *Engine) PackSub(slot int, fast bool, zt0, ztl, z0, z1, x0, x1 int) {
	elems := (z1 - z0) * (x1 - x0) * e.g.Ny
	e.c.Advance(e.copyCost(elems))
}

// PostTile starts the simulated non-blocking all-to-all for one tile.
func (e *Engine) PostTile(slot int, ztl int) mpi.Request {
	e.g.SendCounts(ztl, e.cnts.send)
	e.g.RecvCounts(ztl, e.cnts.recv)
	return e.c.Ialltoallv(nil, e.cnts.send, nil, e.cnts.recv)
}

// UnpackSub charges the loop-tiled unpack cost of one sub-tile.
func (e *Engine) UnpackSub(slot int, fast bool, zt0, ztl, z0, z1, y0, y1 int) {
	elems := (z1 - z0) * (y1 - y0) * e.g.Nx
	e.c.Advance(e.copyCost(elems))
}

// FFTxSub charges (z1−z0)·(y1−y0) transforms of length Nx.
func (e *Engine) FFTxSub(fast bool, zt0, z0, z1, y0, y1 int) {
	rows := (z1 - z0) * (y1 - y0)
	e.c.Advance(int64(float64(rows) * e.fftRowNs(e.g.Nx)))
}
