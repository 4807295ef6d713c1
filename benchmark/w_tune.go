package main

import (
	"fmt"

	"offt"
	"offt/internal/machine"
	"offt/internal/tuner"
)

// tune-sim-128-p16: the largest paper-like point that still yields about
// sixty complete tunes in a 30 s window on this box.
const (
	tuneMachine = "umd-cluster"
	tuneRanks   = 16
	tuneN       = 128
	tuneBudget  = 40
)

// tuneInst is tune-sim-128-p16: op = one complete TuneNEW on the sim
// engine. There is nothing to construct and no input data: the seed does
// not reach this workload.
type tuneInst struct {
	mach machine.Machine

	have      bool // first* hold the first tune's outcome
	firstPrm  offt.Params
	firstBest int64
	firstVirt int64

	lastPrm offt.Params
	lastOut offt.TuneOutcome
}

func openTune(int64) (instance, error) {
	m, err := machine.ByName(tuneMachine)
	if err != nil {
		return nil, err
	}
	return &tuneInst{mach: m}, nil
}

func (s *tuneInst) op(tr *tracer, parent int) error {
	var err error
	if tr == nil {
		s.lastPrm, s.lastOut, err = tuner.TuneNEW(s.mach, tuneRanks, tuneN, tuneBudget)
		return err
	}
	// The traced pass hands the tuner a Strategy that wraps the objective
	// in a span and delegates to the Nelder–Mead strategy TuneNEW uses:
	// the tune span's self time is then the search itself.
	strat := func(space tuner.Space, obj tuner.Objective, def []int, budget int) tuner.Result {
		timed := func(cfg []int) float64 {
			id := tr.begin("model.eval", parent)
			cost := obj(cfg)
			tr.end(id)
			return cost
		}
		return tuner.NelderMeadStrategy(space, timed, def, budget)
	}
	s.lastPrm, s.lastOut, err = tuner.TuneNEWWith(s.mach, tuneRanks, tuneN, tuneBudget, strat)
	return err
}

// verify requires every tune to return the parameters, tuned time and
// virtual tuning time of the first: the search is deterministic.
func (s *tuneInst) verify(bool) error {
	best, virt := s.lastOut.BestTime(), s.lastOut.VirtualNs
	if !s.have {
		if best <= 0 || virt <= 0 {
			return fmt.Errorf("tune returned best time %d ns, virtual tuning time %d ns", best, virt)
		}
		s.have, s.firstPrm, s.firstBest, s.firstVirt = true, s.lastPrm, best, virt
		return nil
	}
	if s.lastPrm != s.firstPrm || best != s.firstBest || virt != s.firstVirt {
		return fmt.Errorf("tune returned %+v (best %d ns, virtual %d ns), the first returned %+v (best %d ns, virtual %d ns)",
			s.lastPrm, best, virt, s.firstPrm, s.firstBest, s.firstVirt)
	}
	return nil
}

// virtMs is the virtual time of one forward transform with the parameters
// the tuner returned, so a better tuner lowers it.
func (s *tuneInst) virtMs() (float64, error) {
	if !s.have {
		return 0, fmt.Errorf("no tune has run")
	}
	return simVirtMs(offt.WithGrid(tuneN, tuneN, tuneN), offt.WithRanks(tuneRanks),
		offt.WithMachine(tuneMachine), offt.WithParams(s.firstPrm))
}

func (s *tuneInst) close() error { return nil }
