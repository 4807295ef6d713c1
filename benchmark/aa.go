package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// runAA runs the untraced benchmark 2·n times per workload, as sets A and
// B taken alternately from one commit, each run in a process of its own
// and with a seed of its own, and prints per workload and metric the two
// medians, by how much B is worse than A, the bound, and the quartile
// spread of all 2·n runs. Every metric is lower-is-better. It fails when
// any difference breaches its bound or any op failed.
func runAA(ws []workload, n int, seed int64, seconds float64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	breaches := 0
	for _, w := range ws {
		var sets [2]map[string][]float64
		sets[0], sets[1] = map[string][]float64{}, map[string][]float64{}
		for i := 0; i < 2*n; i++ {
			res, err := runChild(self, w.name, seed+int64(i), seconds)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", w.name, i, err)
			}
			if !res.Correct || res.Failed > 0 {
				return fmt.Errorf("%s run %d: %d of %d ops failed", w.name, i, res.Failed, res.Attempted)
			}
			for name, mv := range res.Metrics {
				sets[i%2][name] = append(sets[i%2][name], mv.Value)
			}
		}
		fmt.Printf("## %s: %d runs per set, %g s windows\n", w.name, n, seconds)
		fmt.Printf("%-18s %14s %14s %9s %7s %9s\n", "metric", "median A", "median B", "B worse", "bound", "spread")
		for _, d := range endToEnd {
			a, b := median(sets[0][d.name]), median(sets[1][d.name])
			worse := (b - a) / a
			verdict := ""
			if worse > d.bound {
				verdict = "  BREACH"
				breaches++
			}
			all := append(append([]float64(nil), sets[0][d.name]...), sets[1][d.name]...)
			fmt.Printf("%-18s %14.6g %14.6g %+8.2f%% %6.1f%% %8.2f%%%s\n",
				d.name, a, b, 100*worse, 100*d.bound, 100*quartileSpread(all), verdict)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d metric(s) differ between two sets of runs of the same code by more than their bound", breaches)
	}
	return nil
}

// runChild runs one untraced pass of one workload in a child process and
// parses the result line it prints last.
func runChild(self, workload string, seed int64, seconds float64) (*result, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &res, nil
}
