package model

import (
	"fmt"

	"offt/internal/layout"
	"offt/internal/machine"
	"offt/internal/mpi/fault"
	"offt/internal/mpi/sim"
	"offt/internal/pfft"
	"offt/internal/simnet"
)

// Spec describes one simulated 3-D FFT run.
type Spec struct {
	Variant pfft.Variant
	Params  pfft.Params   // used by NEW / NEW0
	TH      pfft.THParams // used by TH / TH0
	// Faults, when set, degrades the fabric in virtual time (NIC stalls,
	// slow-NIC and link factors; see fault.Plan). Per-message payload
	// faults do not apply to the simulated engine.
	Faults *fault.Plan
}

// NewSpec builds a Spec for the paper's design.
func NewSpec(prm pfft.Params) Spec { return Spec{Variant: pfft.NEW, Params: prm} }

// params folds the spec's two parameter forms into the single set the
// collapsed pfft.Run dispatch expects: TH/TH0 carry their three parameters
// in T, W and Fy (Run expands the whole-tile restrictions internally).
func (s Spec) params() pfft.Params {
	switch s.Variant {
	case pfft.TH, pfft.TH0:
		if s.TH == (pfft.THParams{}) {
			// TH described through the full set: keep its T/W/Fy.
			return pfft.Params{T: s.Params.T, W: s.Params.W, Fy: s.Params.Fy}
		}
		return pfft.Params{T: s.TH.T, W: s.TH.W, Fy: s.TH.F}
	default:
		return s.Params
	}
}

// Result aggregates the per-rank breakdowns of one simulated run.
type Result struct {
	PerRank []pfft.Breakdown
	// Avg is the per-step average over ranks (what Fig. 8 plots).
	Avg pfft.Breakdown
	// MaxTotal is the job completion time: the slowest rank's total.
	MaxTotal int64
	// MaxTuned is the slowest rank's total excluding FFTz and Transpose —
	// the auto-tuner's objective (§4.4 technique 3).
	MaxTuned int64
	// Net is the fabric's activity counters, including fault-injection
	// stats when Spec.Faults was set.
	Net simnet.Stats
}

// Simulate runs one 3-D FFT of shape nx×ny×nz over p simulated ranks on
// machine m and returns the aggregated result. It is deterministic.
func Simulate(m machine.Machine, p, nx, ny, nz int, spec Spec) (Result, error) {
	return SimulateSteady(m, p, nx, ny, nz, spec, 1)
}

// SimulateCube is Simulate for the paper's cubic N³ arrays.
func SimulateCube(m machine.Machine, p, n int, spec Spec) (Result, error) {
	return Simulate(m, p, n, n, n, spec)
}

// SimulateSteady charges the Plan lifecycle in virtual time: iters
// transforms run back-to-back in ONE simulated world, each rank reusing
// one engine — the cost-model mirror of pfft.Plan's create-once /
// execute-many steady state. The per-rank breakdowns (and Avg, MaxTotal,
// MaxTuned) accumulate over all iterations, so Result.MaxTotal is the
// virtual completion time of the whole batch on the slowest rank.
func SimulateSteady(m machine.Machine, p, nx, ny, nz int, spec Spec, iters int) (Result, error) {
	if iters < 1 {
		return Result{}, fmt.Errorf("model: SimulateSteady iters %d < 1", iters)
	}
	if _, err := layout.NewGrid(nx, ny, nz, p, 0); err != nil {
		return Result{}, err
	}
	w := sim.NewWorld(m, p)
	if spec.Faults != nil {
		w.InjectFaults(spec.Faults)
	}
	res := Result{PerRank: make([]pfft.Breakdown, p)}
	var runErr error
	err := w.Run(func(c *sim.Comm) {
		g, err := layout.NewGrid(nx, ny, nz, p, c.Rank())
		if err != nil {
			panic(err) // checked above for rank 0; identical for others
		}
		e := NewEngine(m, g, c)
		acc := &res.PerRank[c.Rank()]
		for it := 0; it < iters; it++ {
			b, err := pfft.Run(e, spec.Variant, spec.params())
			if err != nil {
				if c.Rank() == 0 {
					runErr = err
				}
				return
			}
			acc.Add(b)
		}
	})
	if err != nil {
		return Result{}, fmt.Errorf("model: simulation failed: %w", err)
	}
	if runErr != nil {
		return Result{}, runErr
	}
	for _, b := range res.PerRank {
		res.Avg.Add(b)
		if b.Total > res.MaxTotal {
			res.MaxTotal = b.Total
		}
		if t := b.TunedPortion(); t > res.MaxTuned {
			res.MaxTuned = t
		}
	}
	res.Avg.Scale(int64(p))
	res.Net = w.Fabric().Stats
	return res, nil
}
