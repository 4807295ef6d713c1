package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one traced interval. Times are nanoseconds since the tracer's
// epoch. parent is an index into the tracer's span list (-1 for a root),
// op numbers the benchmark op the span belongs to, track is the Chrome
// trace thread the span is drawn on (0 = the driver, 1+r = rank r).
type span struct {
	name       string
	start, end int64
	parent     int
	op         int
	track      int
}

// dur is the span's length; a span an error path left open has none.
func (s span) dur() int64 { return max(s.end-s.start, 0) }

// tracer keeps spans in memory; nothing is written until the window is
// over. A nil tracer records nothing, so the untraced pass runs the same
// code with every call a no-op. It is used from one goroutine only: rank
// goroutines hand their timestamps to the driver, which records them.
type tracer struct {
	epoch time.Time
	spans []span
	op    int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// since converts a wall-clock instant to tracer time.
func (t *tracer) since(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// begin opens a span and returns its id; -1 on a nil tracer.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: t.now(), end: -1, parent: parent, op: t.op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = t.now()
}

// add records a span whose interval is already known (a duration a call
// returned, or timestamps a rank goroutine took).
func (t *tracer) add(name string, start, end int64, parent, track int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: start, end: end, parent: parent, op: t.op, track: track})
	return len(t.spans) - 1
}

// layAfter lays a run of durations out back to back as children of
// parent, starting at the parent's start, and returns their ids (-1 for a
// duration that is not positive): accurate durations, synthetic placement
// (the calls return how long each stage took, not when).
func (t *tracer) layAfter(parent, track int, names []string, durs []int64) []int {
	ids := make([]int, len(durs))
	cur := t.spans[parent].start
	for i, d := range durs {
		ids[i] = -1
		if d > 0 {
			ids[i] = t.add(names[i], cur, cur+d, parent, track)
			cur += d
		}
	}
	return ids
}

// selfTimes returns, for every span, its duration minus the part of its
// interval covered by its direct children (overlapping children are
// merged first, and clipped to the parent).
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, spans, kids[i])
	}
	return self
}

// covered is the length of the union of the children's intervals inside
// the parent's interval.
func covered(parent span, spans []span, kids []int) int64 {
	sort.Slice(kids, func(i, j int) bool { return spans[kids[i]].start < spans[kids[j]].start })
	var total int64
	upTo := parent.start // everything before upTo is accounted for
	for _, k := range kids {
		a, b := max(spans[k].start, upTo), min(spans[k].end, parent.end)
		if b > a {
			total += b - a
			upTo = b
		}
	}
	return total
}

// perOp sums, per op, the self time (or the whole duration when whole is
// true) of every span called name, and returns the per-op mean in
// nanoseconds over the ops that have such a span.
func perOp(spans []span, self []int64, name string, whole bool) float64 {
	sums := map[int]int64{}
	for i, s := range spans {
		if s.name != name {
			continue
		}
		if whole {
			sums[s.op] += s.dur()
		} else {
			sums[s.op] += self[i]
		}
	}
	if len(sums) == 0 {
		return 0
	}
	var tot int64
	for _, v := range sums {
		tot += v
	}
	return float64(tot) / float64(len(sums))
}

// closure is the share of the named root spans' total duration that
// their direct children cover.
func closure(spans []span, self []int64, root string) float64 {
	var dur, own int64
	for i, s := range spans {
		if s.name == root && s.parent < 0 {
			dur += s.dur()
			own += self[i]
		}
	}
	if dur == 0 {
		return 0
	}
	return 1 - float64(own)/float64(dur)
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, microsecond timestamps), loadable in chrome://tracing and
// ui.perfetto.dev.
func writeChrome(path string, workload string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, `{"displayTimeUnit":"ms","otherData":{"workload":%q},"traceEvents":[`, workload)
	first := true
	for i, s := range spans {
		if s.end < s.start {
			continue
		}
		ev := map[string]any{
			"name": s.name, "ph": "X", "pid": 1, "tid": s.track,
			"ts": float64(s.start) / 1e3, "dur": float64(s.dur()) / 1e3,
			"args": map[string]int{"id": i, "parent": s.parent, "op": s.op},
		}
		b, err := json.Marshal(ev)
		if err != nil {
			f.Close()
			return err
		}
		if !first {
			w.WriteByte(',')
		}
		first = false
		w.WriteByte('\n')
		w.Write(b)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
