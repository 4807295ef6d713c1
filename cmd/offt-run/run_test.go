package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runBin runs the offt-run binary and returns its combined output, failing
// the test when it exits nonzero.
func runBin(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("offt-run %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

// paramsLine returns the output's "params:" line.
func paramsLine(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "params: ") {
			return line
		}
	}
	t.Fatalf("no params: line in\n%s", out)
	return ""
}

// TestRunCommand runs the built binary on each engine and decomposition:
// mem runs verify against the serial transform, sim runs print the cost
// model's times, the trace flags work on pencil, slab sim takes a fault
// plan, and a net pencil world runs the parameters a mem run resolves,
// overrides included.
func TestRunCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns the command")
	}
	dir := t.TempDir()
	bin := buildOfftRun(t, dir)
	trace := filepath.Join(dir, "trace.json")

	rows := []struct {
		name  string
		args  []string
		ranks int // > 0: a net world of this many processes; rank 0's output is checked
		want  []string
		check func(t *testing.T, out string)
	}{
		{name: "slab-mem", args: []string{"-engine", "mem", "-p", "4", "-n", "16", "-verify"},
			want: []string{"decomp=slab", "per-rank breakdown", "verification PASSED"}},
		{name: "pencil-mem", args: []string{"-decomp", "pencil", "-engine", "mem", "-p", "4", "-n", "16", "-verify"},
			want: []string{"proc-grid=2x2", "per-rank breakdown", "verification PASSED"}},
		{name: "slab-sim", args: []string{"-engine", "sim", "-p", "8", "-n", "32"},
			want: []string{"machine=umd-cluster", "simulated job time", "per-rank breakdown"}},
		{name: "pencil-sim", args: []string{"-decomp", "pencil", "-engine", "sim", "-p", "128", "-n", "64"},
			want: []string{"proc-grid=8x16", "Pr=8", "simulated job time: 0.0027 s"}},
		{name: "pencil-timeline", args: []string{"-decomp", "pencil", "-engine", "mem", "-p", "4", "-n", "16", "-timeline"},
			want: []string{"rank 0 timeline", "Wait"}},
		{name: "pencil-trace-out", args: []string{"-decomp", "pencil", "-engine", "mem", "-p", "4", "-n", "16", "-trace-out", trace},
			want: []string{"chrome trace written to"},
			check: func(t *testing.T, _ string) {
				raw, err := os.ReadFile(trace)
				if err != nil {
					t.Fatal(err)
				}
				var doc struct {
					TraceEvents []struct {
						Name string `json:"name"`
						Ph   string `json:"ph"`
						Pid  int    `json:"pid"`
					} `json:"traceEvents"`
				}
				if err := json.Unmarshal(raw, &doc); err != nil {
					t.Fatalf("trace is not Chrome JSON: %v", err)
				}
				tracks := map[int]int{}
				for _, e := range doc.TraceEvents {
					if e.Ph == "M" && e.Name == "process_name" {
						tracks[e.Pid]++
					}
				}
				if len(tracks) != 4 || len(doc.TraceEvents) <= 4 {
					t.Fatalf("want one track per rank of 4 and their events, got tracks %v over %d events", tracks, len(doc.TraceEvents))
				}
				for pid, k := range tracks {
					if pid < 0 || pid >= 4 || k != 1 {
						t.Fatalf("tracks %v: want ranks 0..3 once each", tracks)
					}
				}
			}},
		{name: "slab-sim-chaos", args: []string{"-engine", "sim", "-p", "8", "-n", "64", "-chaos", "7", "-chaos-profile", "stall"},
			want: []string{"simulated job time: 0.0585 s", "stall displacement  0.0388 s", "degraded transfers  112"}},
		{name: "net-pencil", args: []string{"-engine", "net", "-decomp", "pencil", "-n", "16", "-pr", "1", "-T", "2", "-W", "1"},
			ranks: 2, want: []string{"decomp=pencil", "T=2 W=1"},
			check: func(t *testing.T, out string) {
				mem := runBin(t, bin, "-engine", "mem", "-decomp", "pencil", "-p", "2", "-n", "16", "-pr", "1", "-T", "2", "-W", "1")
				if got, want := paramsLine(t, out), paramsLine(t, mem); got != want {
					t.Fatalf("net rank 0 runs %q, mem runs %q", got, want)
				}
			}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var out string
			if row.ranks == 0 {
				out = runBin(t, bin, row.args...)
			} else {
				coord := reservePort(t)
				cmds := make([]*exec.Cmd, row.ranks)
				outs := make([]strings.Builder, row.ranks)
				for r := range cmds {
					args := append([]string{"-p", fmt.Sprint(row.ranks), "-rank", fmt.Sprint(r), "-coord", coord}, row.args...)
					cmds[r] = exec.Command(bin, args...)
					cmds[r].Stdout, cmds[r].Stderr = &outs[r], &outs[r]
					if err := cmds[r].Start(); err != nil {
						t.Fatalf("start rank %d: %v", r, err)
					}
				}
				for r, cmd := range cmds {
					if err := cmd.Wait(); err != nil {
						t.Fatalf("rank %d failed: %v\n%s", r, err, outs[r].String())
					}
				}
				out = outs[0].String()
			}
			for _, w := range row.want {
				if !strings.Contains(out, w) {
					t.Errorf("output lacks %q:\n%s", w, out)
				}
			}
			if row.check != nil {
				row.check(t, out)
			}
		})
	}
}
