// Command offt-tune runs the auto-tuner (§4) for one setting and prints
// the tuned parameters (a Table-3-style row), the achieved time, and the
// tuning cost — optionally comparing against random search (§5.3.1).
//
// Usage:
//
//	offt-tune -machine umd-cluster -p 16 -n 256 [-evals 50] [-random 200]
//	offt-tune -decomp pencil -p 128 -n 64   (tune the Py×Pz grid jointly)
//
// The default point is the one offt.DescribePlan resolves for the setting:
// what an untuned plan runs and where the search starts. The default and
// tuned times are those of Sim plans.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"offt"
	"offt/internal/machine"
	"offt/internal/stats"
	"offt/internal/telemetry"
	"offt/internal/tuned"
	"offt/internal/tuner"
)

func main() {
	machName := flag.String("machine", "umd-cluster", "machine model: umd-cluster, hopper, laptop")
	p := flag.Int("p", 16, "number of ranks")
	n := flag.Int("n", 256, "per-dimension size (N³ elements)")
	decompName := flag.String("decomp", "slab", "decomposition to tune: slab (1-D) or pencil (2-D; searches the Py×Pz grid jointly)")
	evals := flag.Int("evals", 50, "Nelder-Mead evaluation budget")
	random := flag.Int("random", 0, "also run random search with this many samples")
	seed := flag.Int64("seed", 1, "random search seed")
	store := flag.String("store", "",
		"append the tuned parameters to this JSON store, keyed by (machine, grid, ranks, variant); offt.WithTunedStore and offt-serve -store warm-start from it")
	commName := flag.String("comm", "",
		"pin the all-to-all schedule (pairwise, bruck, hier, windowed) and tune the rest under it; empty searches all schedules as the 11th parameter")
	var obs telemetry.CLI
	obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if err := obs.Start(os.Stderr); err != nil {
		fatal(err)
	}
	m, err := machine.ByName(*machName)
	if err != nil {
		fatal(err)
	}
	decomp, err := offt.ParseDecomp(*decompName)
	if err != nil {
		fatal(err)
	}
	base := []offt.Option{
		offt.WithGrid(*n, *n, *n), offt.WithRanks(*p), offt.WithDecomp(decomp),
		offt.WithVariant(offt.NEW), offt.WithEngine(offt.Sim), offt.WithMachine(m.Name),
	}
	var pin *offt.CommAlg
	if *commName != "" {
		alg, err := offt.ParseComm(*commName)
		if err != nil {
			fatal(err)
		}
		pin = &alg
		base = append(base, offt.WithComm(alg))
	}
	desc, err := offt.DescribePlan(base...)
	if err != nil {
		fatal(err)
	}

	var size int64
	label := "default time"
	if decomp == offt.Pencil {
		space, err := tuner.PencilGridSpace(*n, *n, *n, *p)
		if err != nil {
			fatal(err)
		}
		size = space.Size()
		if *random > 0 {
			fmt.Fprintln(os.Stderr, "warning: -random compares against the slab search space; ignored for -decomp pencil")
			*random = 0
		}
	} else {
		if size, _, err = offt.SearchSpaceSize(*n, *n, *n, *p); err != nil {
			fatal(err)
		}
		label += " (excl. FFTz+Transpose)" // the slab tuner's objective
	}
	_, defNs := simulate(desc)
	fmt.Printf("setting: %s p=%d N=%d³ decomp=%v (search space %d configurations)\n", m.Name, *p, *n, decomp, size)
	fmt.Printf("default point: %s\n", point(desc.Params, *p))
	fmt.Printf("%s: %.4f s\n", label, float64(defNs)/1e9)

	var prm offt.Params
	var out offt.TuneOutcome
	if decomp == offt.Pencil {
		prm, out, err = tuner.TunePencilNEWPinned(m, *p, *n, *evals, pin)
	} else {
		prm, out, err = tuner.TuneNEWPinned(m, *p, *n, *evals, tuner.NelderMeadTelemetry(obs.Registry()), pin)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nNelder-Mead result after %d evaluations (%d suggestions, %d cache hits, %d infeasible):\n",
		out.Search.Evals, out.Search.Suggestions, out.Search.CacheHits, out.Search.Infeasible)
	fmt.Printf("  %s\n", point(prm, *p))
	fmt.Printf("  tuned time: %.4f s (%.2fx better than default)\n",
		float64(out.BestTime())/1e9, float64(defNs)/float64(out.BestTime()))
	fmt.Printf("  tuning cost: %.2f simulated s, %v wall\n",
		float64(out.VirtualNs)/1e9, time.Duration(out.WallNs).Round(time.Millisecond))
	tunedDesc, err := offt.DescribePlan(append(base, offt.WithParams(prm))...)
	if err != nil {
		fatal(err)
	}
	full, _ := simulate(tunedDesc)
	fmt.Printf("  full 3-D FFT time with tuned parameters: %.4f s\n", float64(full)/1e9)

	if *store != "" {
		key := tuned.NewKeyDecomp(m.Name, *n, *n, *n, *p, offt.NEW, decomp.String())
		if pin != nil {
			// Pinned-schedule entries get a comm-qualified key, so they
			// only resolve for plans that pin the same schedule.
			key = key.WithComm(pin.String())
		}
		entry := tuned.Entry{Key: key, Params: prm, TunedNs: out.BestTime(), Evals: out.Search.Evals}
		if err := tuned.Append(*store, entry); err != nil {
			fatal(err)
		}
		fmt.Printf("  stored tuned parameters in %s under %q\n", *store, entry.Key.String())
	}

	if *random > 0 {
		rnd, err := tuner.RandomNEW(m, *p, *n, *random, *seed)
		if err != nil {
			fatal(err)
		}
		var xs []float64
		for _, smp := range rnd.Search.History {
			if smp.Cost < 1e18 {
				xs = append(xs, smp.Cost/1e9)
			}
		}
		fmt.Printf("\nrandom search (%d samples): best %.4f s, median %.4f s, worst %.4f s\n",
			*random, stats.Min(xs), stats.Percentile(xs, 50), stats.Max(xs))
		fmt.Printf("NM result ranks in percentile %.1f of the random distribution\n",
			stats.PercentileRank(xs, float64(out.BestTime())/1e9))
	}
	if err := obs.Finish(); err != nil {
		fatal(err)
	}
}

// simulate runs one transform of the described plan on the Sim engine and
// returns its job time and the tuner's objective for it (the job time
// less FFTz and Transpose on slab, the whole job time on pencil), in
// virtual ns.
func simulate(d offt.PlanDescription) (total, objective int64) {
	pl, err := offt.NewPlanFrom(d)
	if err != nil {
		fatal(err)
	}
	defer pl.Close()
	if _, err := pl.Forward(nil); err != nil {
		fatal(err)
	}
	return pl.VirtualTimes()
}

// point renders a parameter set, with the process grid a pencil one pins.
func point(prm offt.Params, p int) string {
	if prm.Pr == 0 {
		return prm.String()
	}
	return fmt.Sprintf("%v  (process grid %dx%d)", prm, prm.Pr, p/prm.Pr)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
