package harness

import (
	"fmt"
	"maps"
	"slices"
	"text/tabwriter"

	"offt"
	"offt/internal/layout"
	"offt/internal/machine"
	"offt/internal/mpi"
	"offt/internal/pfft"
	"offt/internal/tuner"
)

// The comm-crossover study measures where the all-to-all exchange
// schedules separate: pairwise posts p−1 point-to-point rounds per
// collective, so at large p with small tiles its per-round latency
// dominates and Bruck's ⌈log₂ p⌉ rounds win; at small p with fat
// messages pairwise's minimal data volume wins back. Every point runs
// through the public plan API on the Sim engine, so the study also pins
// the WithComm plumbing: a plan with the schedule pinned to pairwise
// must reproduce the unpinned default bit for bit, and the auto-tuner —
// with the schedule as its 11th dimension — must never do worse than a
// pairwise-only search.

// CommRow is one measured (decomposition, ranks, schedule) point.
type CommRow struct {
	Decomp    string
	Ranks     int
	Comm      string
	VirtualNs int64
	Seconds   float64
	// VsPairwise is pairwise-time / this-time at the same point (>1
	// means this schedule is faster than pairwise there).
	VsPairwise float64
}

// CommReport is the schedule sweep's rows and gate verdicts.
type CommReport struct {
	Machine string
	N       int
	Scale   string
	Rows    []CommRow
	// The latency-dominated gate point: one x-plane per rank, T=1, so
	// each collective moves p tiny messages and round count is the bill.
	GateN        int
	GateRanks    int
	GatePairNs   int64
	GateBruckNs  int64
	BruckSpeedup float64
	// Tuner parity at the small fat-message point, where pairwise is
	// expected to keep winning.
	TunerN        int
	TunerRanks    int
	TunerAutoNs   int64
	TunerAutoComm string
	TunerPinNs    int64
	TunerRatio    float64

	Gates map[string]string
	Pass  bool
}

// commLadder returns the sweep geometry for a scale. The pencil ladder
// reuses the crossover study's beyond-the-slab-cap region, where the
// row/column collectives shrink and round count matters most.
func commLadder(s Scale) (mach string, n int, slabPs, pencilPs []int) {
	if s == ScalePaper {
		return "umd-cluster", 256, []int{16, 64, 256}, []int{512, 1024}
	}
	return "umd-cluster", 64, []int{4, 16, 64}, []int{64, 128}
}

// RunCommCrossover executes the schedule sweep and applies three gates:
// pairwise pinned explicitly must match the unpinned default exactly,
// Bruck must beat pairwise by ≥1.3× at the latency-dominated point
// (N=256³, p=256, T=1 — one plane per rank, 255 rounds vs 8), and the
// 11-dimensional auto-tuner must stay within 2% of a pairwise-only
// search where pairwise wins.
func RunCommCrossover(scale Scale) (*CommReport, error) {
	mach, n, slabPs, pencilPs := commLadder(scale)
	rep := &CommReport{
		Machine: mach,
		N:       n,
		Scale:   scale.String(),
		Gates:   map[string]string{},
		Pass:    true,
	}

	simTotal := func(decomp offt.Decomp, p int, pin *offt.CommAlg, prm *offt.Params) (int64, error) {
		opts := []offt.Option{
			offt.WithGrid(n, n, n), offt.WithRanks(p),
			offt.WithDecomp(decomp), offt.WithEngine(offt.Sim), offt.WithMachine(mach),
		}
		if prm != nil {
			opts = append(opts, offt.WithParams(*prm))
		}
		if pin != nil {
			opts = append(opts, offt.WithComm(*pin))
		}
		plan, err := offt.NewPlan(opts...)
		if err != nil {
			return 0, err
		}
		defer plan.Close()
		if _, err := plan.Forward(nil); err != nil {
			return 0, err
		}
		total, _ := plan.VirtualTimes()
		return total, nil
	}

	type point struct {
		decomp offt.Decomp
		p      int
	}
	var points []point
	for _, p := range slabPs {
		points = append(points, point{offt.Slab, p})
	}
	for _, p := range pencilPs {
		points = append(points, point{offt.Pencil, p})
	}
	noregress := true
	for _, pt := range points {
		def, err := simTotal(pt.decomp, pt.p, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("%v p=%d default: %w", pt.decomp, pt.p, err)
		}
		var pairwise int64
		for _, alg := range offt.CommAlgs() {
			alg := alg
			total, err := simTotal(pt.decomp, pt.p, &alg, nil)
			if err != nil {
				return nil, fmt.Errorf("%v p=%d comm=%v: %w", pt.decomp, pt.p, alg, err)
			}
			if alg == offt.CommPairwise {
				pairwise = total
				if total != def {
					noregress = false
					rep.Gates["pairwise_noregress"] = fmt.Sprintf(
						"FAIL: %v p=%d pinned pairwise %d ns != unpinned default %d ns",
						pt.decomp, pt.p, total, def)
					rep.Pass = false
				}
			}
			row := CommRow{
				Decomp: pt.decomp.String(), Ranks: pt.p, Comm: alg.String(),
				VirtualNs: total, Seconds: sec(total),
			}
			if pairwise > 0 && total > 0 {
				row.VsPairwise = round2f(float64(pairwise) / float64(total))
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	if noregress {
		rep.Gates["pairwise_noregress"] = fmt.Sprintf(
			"ok: pinned pairwise identical to the unpinned default at all %d sweep points", len(points))
	}

	// Gate point: one x-plane per rank and T=1 leaves nothing but round
	// latency, the regime the Bruck schedule exists for (p−1 pairwise
	// rounds vs ⌈log₂ p⌉). Paper scale uses the full 256³/p=256 point;
	// small scale shrinks it to keep the harness tests quick.
	rep.GateN, rep.GateRanks = 64, 64
	if scale == ScalePaper {
		rep.GateN, rep.GateRanks = 256, 256
	}
	gg, err := layout.NewGrid(rep.GateN, rep.GateN, rep.GateN, rep.GateRanks, 0)
	if err != nil {
		return nil, err
	}
	gatePrm := pfft.DefaultParams(gg)
	gatePrm.T = 1
	gatePrm.Pz, gatePrm.Uz = 1, 1 // pack/unpack sub-tiles cannot exceed T
	gateTotal := func(alg offt.CommAlg) (int64, error) {
		prm := gatePrm
		prm.Comm = alg
		plan, err := offt.NewPlan(
			offt.WithGrid(rep.GateN, rep.GateN, rep.GateN), offt.WithRanks(rep.GateRanks),
			offt.WithEngine(offt.Sim), offt.WithMachine(mach), offt.WithParams(prm),
		)
		if err != nil {
			return 0, err
		}
		defer plan.Close()
		if _, err := plan.Forward(nil); err != nil {
			return 0, err
		}
		total, _ := plan.VirtualTimes()
		return total, nil
	}
	if rep.GatePairNs, err = gateTotal(offt.CommPairwise); err != nil {
		return nil, fmt.Errorf("gate point pairwise: %w", err)
	}
	if rep.GateBruckNs, err = gateTotal(offt.CommBruck); err != nil {
		return nil, fmt.Errorf("gate point bruck: %w", err)
	}
	rep.BruckSpeedup = round2f(float64(rep.GatePairNs) / float64(rep.GateBruckNs))
	if rep.BruckSpeedup < 1.3 {
		rep.Gates["bruck_crossover"] = fmt.Sprintf(
			"FAIL: bruck %.2fx vs pairwise at N=%d³ p=%d T=1 (want ≥1.30x)",
			rep.BruckSpeedup, rep.GateN, rep.GateRanks)
		rep.Pass = false
	} else {
		rep.Gates["bruck_crossover"] = fmt.Sprintf(
			"ok: bruck %.2fx vs pairwise at N=%d³ p=%d T=1 (%.4f s → %.4f s)",
			rep.BruckSpeedup, rep.GateN, rep.GateRanks, sec(rep.GatePairNs), sec(rep.GateBruckNs))
	}

	// Tuner parity: at a small fat-message point pairwise should win, and
	// searching the schedule dimension must not cost the tuner more than
	// noise against a pairwise-only search of the same budget.
	rep.TunerN, rep.TunerRanks = 64, 4
	const evals = 50
	m, err := machine.ByName(mach)
	if err != nil {
		return nil, err
	}
	autoPrm, autoOut, err := tuner.TuneNEW(m, rep.TunerRanks, rep.TunerN, evals)
	if err != nil {
		return nil, fmt.Errorf("tuner auto: %w", err)
	}
	pin := mpi.CommPairwise
	_, pinOut, err := tuner.TuneNEWPinned(m, rep.TunerRanks, rep.TunerN, evals, tuner.NelderMeadStrategy, &pin)
	if err != nil {
		return nil, fmt.Errorf("tuner pinned: %w", err)
	}
	rep.TunerAutoNs = autoOut.BestTime()
	rep.TunerAutoComm = autoPrm.Comm.String()
	rep.TunerPinNs = pinOut.BestTime()
	rep.TunerRatio = round4f(float64(rep.TunerAutoNs) / float64(rep.TunerPinNs))
	if rep.TunerRatio > 1.02 {
		rep.Gates["tuner_parity"] = fmt.Sprintf(
			"FAIL: schedule-searching tuner %.4f s is %.1f%% slower than pairwise-only %.4f s at N=%d³ p=%d (cap 2%%)",
			sec(rep.TunerAutoNs), 100*(rep.TunerRatio-1), sec(rep.TunerPinNs), rep.TunerN, rep.TunerRanks)
		rep.Pass = false
	} else {
		rep.Gates["tuner_parity"] = fmt.Sprintf(
			"ok: schedule-searching tuner %.4f s (picked %s) within 2%% of pairwise-only %.4f s at N=%d³ p=%d",
			sec(rep.TunerAutoNs), rep.TunerAutoComm, sec(rep.TunerPinNs), rep.TunerN, rep.TunerRanks)
	}
	return rep, nil
}

// ExtCommCrossover runs the schedule crossover study, renders it, and
// fails when a gate fails.
func ExtCommCrossover(r *Runner) error {
	rep, err := RunCommCrossover(r.Cfg.Scale)
	if err != nil {
		return err
	}
	fmt.Fprintf(r.Cfg.Out, "== Extension — all-to-all schedule crossover on %s, N=%d³, scale=%s ==\n",
		rep.Machine, rep.N, rep.Scale)
	tw := tabwriter.NewWriter(r.Cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "decomp\tp\tschedule\ttime (s)\tvs pairwise")
	for _, row := range rep.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%s\t%.4f\t%.2fx\n", row.Decomp, row.Ranks, row.Comm, row.Seconds, row.VsPairwise)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(r.Cfg.Out, "latency-dominated point N=%d³ p=%d T=1: pairwise %.4f s, bruck %.4f s (%.2fx)\n",
		rep.GateN, rep.GateRanks, sec(rep.GatePairNs), sec(rep.GateBruckNs), rep.BruckSpeedup)
	for _, name := range slices.Sorted(maps.Keys(rep.Gates)) {
		fmt.Fprintf(r.Cfg.Out, "gate %-18s %s\n", name, rep.Gates[name])
	}
	if !rep.Pass {
		return fmt.Errorf("comm-crossover gates failed")
	}
	return nil
}

func round2f(f float64) float64 { return float64(int64(f*100+0.5)) / 100 }
func round4f(f float64) float64 { return float64(int64(f*10000+0.5)) / 10000 }
