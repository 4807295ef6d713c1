package pfft

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// StepEvent records one kernel or communication interval on a rank's
// timeline, in engine-clock nanoseconds.
type StepEvent struct {
	Name       string
	Start, End int64
	Tile       int // communication tile index, −1 when not applicable
}

// traceRec accumulates one rank's StepEvents for a Pipeline, which is the
// only place events are recorded: it brackets every kernel and
// communication call with Comm.Now() pairs for the Breakdown anyway, and
// events reuse those timestamps. It also knows each event's tile index
// directly (posts and waits retire in ascending tile order), which is what
// lets the timeline exporter draw a flow arrow from each Ialltoall to the
// Wait that retires it. A nil *traceRec is the disabled recorder: every
// method is a no-op behind one nil check.
type traceRec struct {
	events []StepEvent
}

func (r *traceRec) add(name string, start, end int64, tile int) {
	if r == nil {
		return
	}
	r.events = append(r.events, StepEvent{Name: name, Start: start, End: end, Tile: tile})
}

// addTestBurst records one polling burst as a single Test event,
// coalescing with an immediately preceding Test event. The overlapped
// pipeline polls the transport between kernel calls, and recording every
// poll separately floods the timeline (and the request-span exporter)
// with hundreds of near-zero intervals; one event per burst preserves
// the polling extent at a fraction of the recording cost.
func (r *traceRec) addTestBurst(start, end int64) {
	if r == nil {
		return
	}
	if n := len(r.events); n > 0 && r.events[n-1].Name == "Test" {
		r.events[n-1].End = end
		return
	}
	r.events = append(r.events, StepEvent{Name: "Test", Start: start, End: end, Tile: -1})
}

func (r *traceRec) instant(name string, now int64, tile int) {
	if r == nil {
		return
	}
	r.events = append(r.events, StepEvent{Name: name, Start: now, End: now, Tile: tile})
}

func (r *traceRec) reset() {
	if r == nil {
		return
	}
	r.events = r.events[:0]
}

// RenderTimeline prints an ASCII Gantt chart of the recorded events, one
// row per step name (Fig. 3 style), with the given number of columns.
func RenderTimeline(w io.Writer, events []StepEvent, cols int) {
	if len(events) == 0 || cols < 10 {
		fmt.Fprintln(w, "(no events)")
		return
	}
	var t0, t1 int64 = events[0].Start, events[0].End
	for _, e := range events {
		if e.Start < t0 {
			t0 = e.Start
		}
		if e.End > t1 {
			t1 = e.End
		}
	}
	if t1 == t0 {
		t1 = t0 + 1
	}
	names := make([]string, 0, 8)
	seen := map[string]bool{}
	for _, e := range events {
		if !seen[e.Name] {
			seen[e.Name] = true
			names = append(names, e.Name)
		}
	}
	sort.SliceStable(names, func(i, j int) bool {
		order := map[string]int{"FFTz": 0, "Transpose": 1, "FFTy": 2, "Pack": 3,
			"Ialltoall": 4, "Alltoall": 4, "Test": 5, "Wait": 6, "Unpack": 7, "FFTx": 8,
			"Downgrade": 9}
		return order[names[i]] < order[names[j]]
	})
	scale := float64(cols) / float64(t1-t0)
	for _, name := range names {
		row := make([]byte, cols)
		for i := range row {
			row[i] = ' '
		}
		for _, e := range events {
			if e.Name != name {
				continue
			}
			lo := int(float64(e.Start-t0) * scale)
			hi := int(float64(e.End-t0) * scale)
			if hi <= lo {
				hi = lo + 1
			}
			if hi > cols {
				hi = cols
			}
			mark := byte('#')
			if e.Tile >= 0 {
				mark = byte('0' + e.Tile%10)
			}
			for i := lo; i < hi; i++ {
				row[i] = mark
			}
		}
		fmt.Fprintf(w, "%-10s|%s|\n", name, strings.TrimRight(string(row), " ")+"")
	}
	fmt.Fprintf(w, "%-10s 0%*s\n", "", cols, fmt.Sprintf("%.3fms", float64(t1-t0)/1e6))
}
