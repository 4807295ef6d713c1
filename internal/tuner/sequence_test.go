package tuner

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"offt/internal/machine"
	"offt/internal/telemetry"
)

// sequenceLine renders what a tune committed, in order: an FNV-64a hash of
// Result.History (each configuration and the bits of its cost), the
// search's counters, the best point and the virtual tuning time.
func sequenceLine(out TuneOutcome) string {
	h := fnv.New64a()
	var b [8]byte
	for _, s := range out.Search.History {
		for _, v := range s.Cfg {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(s.Cost))
		h.Write(b[:])
	}
	r := out.Search
	return fmt.Sprintf("history %016x n=%d evals=%d suggestions=%d hits=%d infeasible=%d best=%v cost=%v virtual=%d",
		h.Sum64(), len(r.History), r.Evals, r.Suggestions, r.CacheHits, r.Infeasible, r.Best, r.BestCost, out.VirtualNs)
}

// telemetryLine renders a NelderMeadTelemetry registry's tuner.* values.
func telemetryLine(r *telemetry.Registry) string {
	s := r.Snapshot()
	h := s.Histograms["tuner.eval_cost_ns"]
	return fmt.Sprintf("counters %v cost_ns count=%d sum=%d best_cost_ns %v",
		s.Counters, h.Count, h.Sum, s.Gauges["tuner.best_cost_ns"])
}

// TestTuneSequencePinned holds the exact sequence of every tuning entry
// point, recorded before batches were computed concurrently: the history in
// suggestion order, the bookkeeping, the best point, the virtual tuning
// time, and the Nelder–Mead telemetry. Concurrency under the objective may
// change when a cost is computed, never which costs are committed or in
// what order.
func TestTuneSequencePinned(t *testing.T) {
	umd, hopper := machine.UMDCluster(), machine.Hopper()
	reg := telemetry.NewRegistry()
	cases := []struct {
		name string
		run  func() (TuneOutcome, error)
		want string
	}{
		{"TuneNEW/umd-16-128-40", func() (TuneOutcome, error) {
			_, out, err := TuneNEWWith(umd, 16, 128, 40, NelderMeadTelemetry(reg))
			return out, err
		},
			"history f170fb4d5308aab1 n=44 evals=39 suggestions=772 hits=728 infeasible=5 best=[16 2 8 16 8 16 8 8 8 8 0] cost=2.469356e+07 virtual=1063758431"},
		{"TuneTH/hopper-4-32-20", func() (TuneOutcome, error) {
			_, out, err := TuneTH(hopper, 4, 32, 20)
			return out, err
		},
			"history 5e0739a8338008c8 n=18 evals=16 suggestions=67 hits=49 infeasible=2 best=[16 2 0] cost=301185 virtual=5267778"},
		{"TunePencilNEW/umd-8-32-20", func() (TuneOutcome, error) {
			_, out, err := TunePencilNEW(umd, 8, 32, 20)
			return out, err
		},
			"history c05783641c3ee054 n=7 evals=7 suggestions=44 hits=37 infeasible=0 best=[2 4 2 4 0] cost=1.100884e+06 virtual=8691051"},
		{"RandomNEW/umd-4-32-20", func() (TuneOutcome, error) {
			return RandomNEW(umd, 4, 32, 20, 7)
		},
			"history 8c8e3c13a1790059 n=123 evals=20 suggestions=123 hits=0 infeasible=103 best=[8 3 8 1 4 2 0 64 64 4 3] cost=1.018336e+06 virtual=26046857"},
		{"Coordinate/umd-4-32-30", func() (TuneOutcome, error) {
			_, out, err := TuneNEWWith(umd, 4, 32, 30, CoordinateStrategy)
			return out, err
		},
			"history 2436a94005f207a3 n=38 evals=30 suggestions=38 hits=0 infeasible=8 best=[8 2 8 8 8 8 2 2 2 2 0] cost=1.014696e+06 virtual=31121760"},
	}
	for _, c := range cases {
		out, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := sequenceLine(out); got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
	const wantTel = "counters map[tuner.cache_hits:728 tuner.evals:39 tuner.infeasible:5 tuner.moves.contractions:2 tuner.moves.expansions:0 tuner.moves.reflections:17 tuner.moves.shrinks:55 tuner.restarts:2] cost_ns count=39 sum=1063758431 best_cost_ns 2.469356e+07"
	if got := telemetryLine(reg); got != wantTel {
		t.Errorf("TuneNEW telemetry:\n got %s\nwant %s", got, wantTel)
	}
}
