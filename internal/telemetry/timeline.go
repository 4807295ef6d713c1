package telemetry

import (
	"encoding/json"
	"io"
	"sort"
)

// Span is one interval on a timeline track (one track per rank). Times are
// engine-clock nanoseconds; the exporter converts to the trace format's
// microseconds. Instant spans render as zero-duration instant events
// (downgrade markers and the like). Tile < 0 means "not tile-scoped".
type Span struct {
	Track   int
	Name    string
	Start   int64
	End     int64
	Tile    int
	Instant bool
}

// Flow is one dependency arrow between two points of the timeline — the
// repo uses it to link each tile's all-to-all post to the Wait that
// completes it. IDs must be unique per flow within one timeline.
type Flow struct {
	ID   int64
	Name string
	// From is the producing point (the post); the flow-start event is
	// emitted at this timestamp on this track.
	FromTrack int
	FromTs    int64
	// To is the consuming point (the wait).
	ToTrack int
	ToTs    int64
}

// Timeline is a collection of per-track spans plus flows, exportable as
// Chrome trace-event JSON (the format Perfetto and chrome://tracing load).
type Timeline struct {
	// TrackNames labels tracks (shown as process names, one per rank).
	TrackNames map[int]string
	Spans      []Span
	Flows      []Flow
}

// NewTimeline creates an empty timeline.
func NewTimeline() *Timeline {
	return &Timeline{TrackNames: make(map[int]string)}
}

// AddSpan appends one interval to a track.
func (tl *Timeline) AddSpan(s Span) { tl.Spans = append(tl.Spans, s) }

// AddFlow appends one dependency arrow.
func (tl *Timeline) AddFlow(f Flow) { tl.Flows = append(tl.Flows, f) }

// chromeEvent is one entry of the trace-event JSON array. Field meanings
// follow the Chrome trace-event format spec: ph is the phase ("X"
// complete, "i" instant, "s"/"f" flow start/finish, "M" metadata), ts and
// dur are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   *int64         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object container form of the format.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func usec(ns int64) float64 { return float64(ns) / 1e3 }

// WriteChromeTrace writes the timeline as Chrome trace-event JSON: one
// metadata-named process per track, "X" complete events sorted by start
// time within each track (monotone ts per track), "i" instant events for
// Instant spans, and an "s"/"f" flow-event pair per Flow. Load the output
// at https://ui.perfetto.dev or chrome://tracing.
func (tl *Timeline) WriteChromeTrace(w io.Writer) error {
	spans := append([]Span(nil), tl.Spans...)
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Track != spans[j].Track {
			return spans[i].Track < spans[j].Track
		}
		return spans[i].Start < spans[j].Start
	})

	events := []chromeEvent{} // non-nil so an empty timeline still emits []
	// Track metadata, in ascending track order.
	tracks := make([]int, 0, len(tl.TrackNames))
	for t := range tl.TrackNames {
		tracks = append(tracks, t)
	}
	sort.Ints(tracks)
	for _, t := range tracks {
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", Pid: t, Tid: 0,
			Args: map[string]any{"name": tl.TrackNames[t]},
		})
	}

	for _, s := range spans {
		ev := chromeEvent{Name: s.Name, Ph: "X", Ts: usec(s.Start), Pid: s.Track, Tid: 0}
		if s.Tile >= 0 {
			ev.Args = map[string]any{"tile": s.Tile}
		}
		if s.Instant {
			ev.Ph = "i"
			ev.S = "p" // process-scoped instant marker
		} else {
			d := usec(s.End - s.Start)
			if d < 0 {
				d = 0
			}
			ev.Dur = &d
		}
		events = append(events, ev)
	}

	for _, f := range tl.Flows {
		id := f.ID
		events = append(events, chromeEvent{
			Name: f.Name, Cat: "flow", Ph: "s", ID: &id,
			Ts: usec(f.FromTs), Pid: f.FromTrack, Tid: 0,
		})
		events = append(events, chromeEvent{
			Name: f.Name, Cat: "flow", Ph: "f", BP: "e", ID: &id,
			Ts: usec(f.ToTs), Pid: f.ToTrack, Tid: 0,
		})
	}

	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}
