package harness

import (
	"fmt"
	"maps"
	"slices"
	"text/tabwriter"

	"offt"
	"offt/internal/layout"
	"offt/internal/machine"
	"offt/internal/model"
	"offt/internal/pfft"
)

// The crossover study measures where 2-D pencil decomposition overtakes
// 1-D slab: slab stops scaling at p = min(Nx, Ny) ranks, so past that cap
// the only comparison that matters is pencil-at-large-p versus the best
// the slab can ever do. Both sides run through the public plan API on the
// Sim engine, so the study also pins the API plumbing itself: the slab
// rows must reproduce the cost model's numbers exactly (a plan built
// without WithDecomp must still be the old slab path, bit for bit).

// CrossoverRow is one measured decomposition point.
type CrossoverRow struct {
	Decomp    string
	Ranks     int
	ProcGrid  []int // [rows, cols], pencil only
	VirtualNs int64
	Seconds   float64
	BeyondCap bool
}

// CrossoverReport is the crossover study's rows and gate verdicts.
type CrossoverReport struct {
	Machine string
	N       int
	Scale   string
	SlabCap int
	Rows    []CrossoverRow
	Gates   map[string]string
	Pass    bool
}

// crossoverLadder returns the machine, grid edge, and the slab/pencil rank
// ladders for a scale. The pencil ladder deliberately extends past the
// slab cap (the last slab entry), since that region is the point.
func crossoverLadder(s Scale) (mach string, n int, slabPs, pencilPs []int) {
	if s == ScalePaper {
		return "umd-cluster", 256, []int{16, 64, 256}, []int{256, 512, 1024}
	}
	return "umd-cluster", 64, []int{4, 16, 64}, []int{64, 128, 256}
}

// RunCrossover executes the slab-vs-pencil crossover study and applies the
// two gates: pencil must beat the slab's best time at some p beyond the
// slab cap, and the slab rows must match the cost model's default-NEW
// numbers exactly (no regression from the decomposition plumbing).
func RunCrossover(scale Scale) (*CrossoverReport, error) {
	mach, n, slabPs, pencilPs := crossoverLadder(scale)
	rep := &CrossoverReport{
		Machine: mach,
		N:       n,
		Scale:   scale.String(),
		SlabCap: n, // layout.NewGrid requires p <= min(Nx, Ny)
		Gates:   map[string]string{},
		Pass:    true,
	}
	m, err := machine.ByName(mach)
	if err != nil {
		return nil, err
	}

	simTotal := func(decomp offt.Decomp, p int) (int64, offt.PlanDescription, error) {
		plan, err := offt.NewPlan(
			offt.WithGrid(n, n, n),
			offt.WithRanks(p),
			offt.WithDecomp(decomp),
			offt.WithEngine(offt.Sim),
			offt.WithMachine(mach),
		)
		if err != nil {
			return 0, offt.PlanDescription{}, err
		}
		defer plan.Close()
		if _, err := plan.Forward(nil); err != nil {
			return 0, offt.PlanDescription{}, err
		}
		total, _ := plan.VirtualTimes()
		return total, plan.Describe(), nil
	}

	var slabBest int64
	for _, p := range slabPs {
		total, _, err := simTotal(offt.Slab, p)
		if err != nil {
			return nil, fmt.Errorf("slab p=%d: %w", p, err)
		}
		rep.Rows = append(rep.Rows, CrossoverRow{
			Decomp: "slab", Ranks: p, VirtualNs: total, Seconds: sec(total),
		})
		if slabBest == 0 || total < slabBest {
			slabBest = total
		}
		// No-regression check: the plan API with WithDecomp omitted (or
		// Slab, its zero value) must reproduce the cost model verbatim.
		g, err := layout.NewGrid(n, n, n, p, 0)
		if err != nil {
			return nil, err
		}
		res, err := model.SimulateCube(m, p, n, model.Spec{Variant: pfft.NEW, Params: pfft.DefaultParams(g)})
		if err != nil {
			return nil, err
		}
		if res.MaxTotal != total {
			rep.Gates["slab_noregress"] = fmt.Sprintf(
				"FAIL: slab p=%d via plan API %d ns != cost model %d ns", p, total, res.MaxTotal)
			rep.Pass = false
		}
	}
	if _, ok := rep.Gates["slab_noregress"]; !ok {
		rep.Gates["slab_noregress"] = fmt.Sprintf(
			"ok: %d slab points identical to the cost model's default-NEW times", len(slabPs))
	}

	var pencilBeyondBest int64
	for _, p := range pencilPs {
		total, desc, err := simTotal(offt.Pencil, p)
		if err != nil {
			return nil, fmt.Errorf("pencil p=%d: %w", p, err)
		}
		row := CrossoverRow{
			Decomp: "pencil", Ranks: p,
			ProcGrid:  []int{desc.ProcRows, desc.ProcCols()},
			VirtualNs: total, Seconds: sec(total),
			BeyondCap: p > rep.SlabCap,
		}
		rep.Rows = append(rep.Rows, row)
		if row.BeyondCap && (pencilBeyondBest == 0 || total < pencilBeyondBest) {
			pencilBeyondBest = total
		}
	}

	switch {
	case pencilBeyondBest == 0:
		rep.Gates["pencil_crossover"] = "FAIL: no pencil point beyond the slab cap was measured"
		rep.Pass = false
	case pencilBeyondBest >= slabBest:
		rep.Gates["pencil_crossover"] = fmt.Sprintf(
			"FAIL: best pencil beyond the slab cap (%.4f s) does not beat the best slab time (%.4f s)",
			sec(pencilBeyondBest), sec(slabBest))
		rep.Pass = false
	default:
		rep.Gates["pencil_crossover"] = fmt.Sprintf(
			"ok: pencil at p > %d reaches %.4f s vs best slab %.4f s (%.2fx)",
			rep.SlabCap, sec(pencilBeyondBest), sec(slabBest),
			float64(slabBest)/float64(pencilBeyondBest))
	}
	return rep, nil
}

// ExtCrossover runs the crossover study, renders it, and fails when a gate
// fails.
func ExtCrossover(r *Runner) error {
	rep, err := RunCrossover(r.Cfg.Scale)
	if err != nil {
		return err
	}
	fmt.Fprintf(r.Cfg.Out, "== Extension — slab-vs-pencil crossover on %s, N=%d³, scale=%s (slab cap p=%d) ==\n",
		rep.Machine, rep.N, rep.Scale, rep.SlabCap)
	tw := tabwriter.NewWriter(r.Cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "decomp\tp\tproc grid\ttime (s)")
	for _, row := range rep.Rows {
		gridCol := "-"
		if row.Decomp == "pencil" {
			gridCol = fmt.Sprintf("%dx%d", row.ProcGrid[0], row.ProcGrid[1])
			if row.BeyondCap {
				gridCol += " (beyond slab cap)"
			}
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%.4f\n", row.Decomp, row.Ranks, gridCol, row.Seconds)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, name := range slices.Sorted(maps.Keys(rep.Gates)) {
		fmt.Fprintf(r.Cfg.Out, "gate %-16s %s\n", name, rep.Gates[name])
	}
	if !rep.Pass {
		return fmt.Errorf("crossover gates failed")
	}
	return nil
}
