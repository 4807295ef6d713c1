// Command offt-bench reproduces the paper's evaluation artifacts: every
// table and figure of §5 has an experiment id (fig5, table2a…c, fig7a…c,
// fig8a…c, table3a…c, fig9a/b, table4a…c).
//
// Usage:
//
//	offt-bench [-scale small|paper] [-seed N] [-v] all
//	offt-bench [-scale small|paper] table2a fig8b ...
//	offt-bench -list
//
// Results within one invocation share tuned configurations per
// (machine, p, N) setting, so "offt-bench all" tunes each setting once.
package main

import (
	"flag"
	"fmt"
	"os"

	"offt/internal/harness"
	"offt/internal/telemetry"
)

func main() { os.Exit(run()) }

// run carries the whole command so every exit path propagates an explicit
// status code and still flushes the -metrics snapshot first.
func run() int {
	scaleFlag := flag.String("scale", "small", "experiment scale: small or paper")
	seed := flag.Int64("seed", 1, "seed for the random-search experiments")
	verbose := flag.Bool("v", false, "print progress while tuning")
	list := flag.Bool("list", false, "list experiment ids and exit")
	csvDir := flag.String("csv", "", "also write times/breakdowns/params/tuning CSVs to this directory")
	var obs telemetry.CLI
	obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, e := range harness.AllWithExtensions() {
			fmt.Printf("%-14s %s\n", e.ID, e.Title)
		}
		return 0
	}
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: offt-bench [-scale small|paper] [-v] all | <experiment-id>...")
		fmt.Fprintln(os.Stderr, "       offt-bench -list")
		return 2
	}

	if err := obs.Start(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	scale, err := harness.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	r := harness.NewRunner(harness.Config{
		Scale:     scale,
		Out:       os.Stdout,
		Seed:      *seed,
		Verbose:   *verbose,
		Telemetry: obs.Registry(),
	})

	var exps []harness.Experiment
	if len(args) == 1 && args[0] == "all" {
		exps = harness.AllWithExtensions()
	} else {
		for _, id := range args {
			e, err := harness.ByID(id)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
			exps = append(exps, e)
		}
	}
	status := 0
	for _, e := range exps {
		fmt.Printf("\n### %s — %s\n", e.ID, e.Title)
		if err := e.Run(r); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			status = 1
			break
		}
	}
	if status == 0 && *csvDir != "" {
		if err := r.WriteCSV(*csvDir); err != nil {
			fmt.Fprintf(os.Stderr, "csv export failed: %v\n", err)
			status = 1
		} else {
			fmt.Printf("\nCSV written to %s\n", *csvDir)
		}
	}
	// Flush even on failure: a partial snapshot still shows how far the
	// run got.
	if err := obs.Finish(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		if status == 0 {
			status = 1
		}
	}
	return status
}
