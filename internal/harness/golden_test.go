package harness

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/small.golden from this tree's output")

// goldenIDs are the deterministic sim-engine experiments behind the
// paper's tables and figures that finish in about two seconds at small
// scale. The large-scale panels (table2c, fig7c, fig8c, …) are left to
// TestAllExperimentsSmallScale.
var goldenIDs = strings.Fields("fig5 table2a table2b fig7a fig8a fig8b table3a table3b fig9a fig9b table4a table4b ext-decomp ext-interarray")

// TestGoldenSmallScale diffs the text `offt-bench -scale small <goldenIDs>`
// prints against the committed copy, so a refactor of the pipeline, the
// cost model, the sim engine or the tuner cannot move the reproduction
// unnoticed. Every number comes from virtual time and is byte-identical
// across runs. After an intended change, run
// `go test ./internal/harness -run TestGoldenSmallScale -update`, review
// the diff, and record the change in EXPERIMENTS.md "Known deviations".
func TestGoldenSmallScale(t *testing.T) {
	var buf bytes.Buffer
	r := NewRunner(Config{Scale: ScaleSmall, Out: &buf})
	for _, id := range goldenIDs {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "\n### %s — %s\n", e.ID, e.Title)
		if err := e.Run(r); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	path := filepath.Join("testdata", "small.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	got, exp := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(got), len(exp)) {
		if got[i] != exp[i] {
			t.Fatalf("output differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, got[i], exp[i])
		}
	}
	t.Fatalf("output has %d lines, %s has %d", len(got), path, len(exp))
}
