package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"offt/internal/telemetry"
)

// getJSON fetches url and decodes the JSON body into out.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode == http.StatusOK {
		if err := json.NewDecoder(res.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return res.StatusCode
}

// TestObserveRequestSpanTree is the PR's acceptance test: a captured
// request's /debug/requests/{id} record must hold a span tree with the
// queue → acquire → exec control chain, per-phase durations that sum
// (within tolerance) to the recorded exec latency, per-rank step spans
// with tile attribution, and the request's overlap efficiency — for both
// slab and pencil plans.
func TestObserveRequestSpanTree(t *testing.T) {
	for _, tc := range []struct {
		name   string
		decomp string
		ranks  int
	}{
		{"slab", "", 2},
		{"pencil", "pencil", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var logBuf strings.Builder
			s := New(Config{
				Telemetry: telemetry.NewRegistry(),
				Trace:     true,
				Logger:    telemetry.NewLogger(&logBuf, telemetry.LevelInfo),
				// A 1 ns floor makes every request "slow", so the very
				// first one is promoted to the notable ring.
				SlowMin:    time.Nanosecond,
				SlowFactor: 0.001,
			})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			defer s.Drain(context.Background())

			const n = 16
			req := TransformRequest{Nx: n, Ny: n, Nz: n, Ranks: tc.ranks, Decomp: tc.decomp}
			code, resp, _, emsg := postTransform(t, ts.URL, req, randField(n*n*n, 7))
			if code != http.StatusOK {
				t.Fatalf("transform: HTTP %d: %s", code, emsg)
			}
			if resp.RequestID == "" {
				t.Fatal("response carries no request ID")
			}

			var rec telemetry.RequestRecord
			if code := getJSON(t, ts.URL+"/debug/requests/"+resp.RequestID, &rec); code != http.StatusOK {
				t.Fatalf("/debug/requests/{id}: HTTP %d — request not captured", code)
			}

			// Promotion: the 1 ns slow floor must have captured it.
			slow := false
			for _, r := range rec.Reasons {
				slow = slow || r == "slow"
			}
			if !slow {
				t.Errorf("captured reasons = %v, want \"slow\"", rec.Reasons)
			}

			// Stage latencies and overlap efficiency recorded.
			if rec.ExecNs <= 0 || rec.QueueNs < 0 || rec.AcqNs < 0 {
				t.Errorf("stage latencies missing: exec=%d queue=%d acq=%d",
					rec.ExecNs, rec.QueueNs, rec.AcqNs)
			}
			if rec.OverlapEff < 0 || rec.OverlapEff > 1 {
				t.Errorf("overlap efficiency = %v, want [0,1]", rec.OverlapEff)
			}

			// The span tree: well-formed links and the control chain.
			if len(rec.Spans) == 0 {
				t.Fatal("record has no spans")
			}
			byID := map[int]telemetry.TraceSpan{}
			for _, sp := range rec.Spans {
				if sp.End < sp.Start {
					t.Fatalf("inverted span %+v", sp)
				}
				byID[sp.ID] = sp
			}
			control := map[string]telemetry.TraceSpan{}
			for _, sp := range rec.Spans {
				if sp.Parent >= 0 {
					if _, ok := byID[sp.Parent]; !ok {
						t.Fatalf("span %d has dangling parent %d", sp.ID, sp.Parent)
					}
				}
				if sp.Kind == "" {
					control[sp.Name] = sp
				}
			}
			for _, name := range []string{"request", "queue", "acquire", "exec", "dispatch"} {
				if _, ok := control[name]; !ok {
					t.Errorf("control span %q missing (have %v)", name, rec.Spans)
				}
			}
			if q, e := control["queue"], control["exec"]; q.End > e.Start {
				t.Errorf("queue span [%d,%d) overlaps exec [%d,%d)", q.Start, q.End, e.Start, e.End)
			}

			// Phase spans exist on the first request; how much of exec they
			// explain is measured below, where it is stable.
			phaseSum := func(rec telemetry.RequestRecord) (sum int64) {
				for _, sp := range rec.Spans {
					if sp.Kind == "phase" {
						sum += sp.Dur()
					}
				}
				return sum
			}
			if phaseSum(rec) == 0 {
				t.Fatal("no phase spans in the tree")
			}

			// Step spans: every rank contributes, with tile attribution.
			ranksSeen := map[int]bool{}
			tiled := false
			for _, sp := range rec.Spans {
				if sp.Kind == "step" {
					ranksSeen[sp.Rank] = true
					tiled = tiled || sp.Tile >= 0
				}
			}
			if len(ranksSeen) != tc.ranks {
				t.Errorf("step spans from %d ranks, want %d", len(ranksSeen), tc.ranks)
			}
			if !tiled {
				t.Error("no step span carries a tile index")
			}

			// Span closure: the per-phase durations (engine-clock time,
			// averaged over ranks) against the exec latency (wall time
			// around the dispatch, in which the ranks also convert their
			// pieces of the request's arrays). Taken from the second
			// request of a 64³ plan: the first request of any plan builds
			// it and runs cold, and at 16³ exec is mostly fixed dispatch
			// cost, so that ratio wanders with scheduling (it failed a
			// [0.3, 1.7] band in 7 of 120 runs). Here it read 0.57–0.89
			// (slab) and 0.59–0.80 (pencil) in 200 idle runs and no lower
			// than 0.55 beside another test process — 0.44–0.77 while the
			// caller's goroutine still scattered and gathered alone, with
			// strays down to 0.16; the phases are a part of exec, so it
			// cannot pass 1.
			const big = 64
			bigReq := TransformRequest{Nx: big, Ny: big, Nz: big, Ranks: tc.ranks, Decomp: tc.decomp}
			var second telemetry.RequestRecord
			for i := 0; i < 2; i++ {
				code, resp, _, emsg := postTransform(t, ts.URL, bigReq, randField(big*big*big, 8))
				if code != http.StatusOK {
					t.Fatalf("64³ transform %d: HTTP %d: %s", i, code, emsg)
				}
				if code := getJSON(t, ts.URL+"/debug/requests/"+resp.RequestID, &second); code != http.StatusOK {
					t.Fatalf("64³ request %d not captured: HTTP %d", i, code)
				}
			}
			ratio := float64(phaseSum(second)) / float64(second.ExecNs)
			if ratio < 0.45 || ratio > 1.05 {
				t.Errorf("64³ phase sum %d vs exec %d: ratio %.2f outside [0.45, 1.05]",
					phaseSum(second), second.ExecNs, ratio)
			}

			// The listing view knows the request too.
			var listing telemetry.FlightSnapshot
			getJSON(t, ts.URL+"/debug/requests", &listing)
			found := false
			for _, sum := range listing.Notable {
				found = found || sum.ID == resp.RequestID
			}
			if !found {
				t.Error("request missing from the notable listing")
			}

			// Chrome export: valid trace-event JSON with a download name.
			hres, err := http.Get(ts.URL + "/debug/requests/" + resp.RequestID + "?format=chrome")
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(hres.Body)
			hres.Body.Close()
			if cd := hres.Header.Get("Content-Disposition"); !strings.Contains(cd, resp.RequestID) {
				t.Errorf("Content-Disposition %q lacks the request ID", cd)
			}
			var doc struct {
				TraceEvents []map[string]any `json:"traceEvents"`
			}
			if err := json.Unmarshal(body, &doc); err != nil {
				t.Fatalf("chrome export is not valid JSON: %v", err)
			}
			if len(doc.TraceEvents) < len(rec.Spans) {
				t.Errorf("chrome export has %d events for %d spans", len(doc.TraceEvents), len(rec.Spans))
			}

			// One structured "request.done" line with the request's
			// identity and overlap efficiency.
			var logged map[string]any
			for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
				m := map[string]any{}
				if err := json.Unmarshal([]byte(line), &m); err != nil {
					t.Fatalf("log line not valid JSON: %s", line)
				}
				if m["event"] == "request.done" && m["req"] == resp.RequestID {
					logged = m
				}
			}
			if logged == nil {
				t.Fatal("no request.done log line for the request")
			}
			if logged["plan"] != resp.PlanKey || logged["status"] != float64(200) {
				t.Errorf("log line fields wrong: %v", logged)
			}
			if _, ok := logged["overlap_eff"]; !ok {
				t.Errorf("log line lacks overlap_eff: %v", logged)
			}
		})
	}
}

// TestObserveSLOAccounting: 2xx requests that meet the objective leave
// the budget intact; a latency objective of 1 ns makes every request bad
// and the burn rate explode past 1. /healthz carries the SLO snapshot.
func TestObserveSLOAccounting(t *testing.T) {
	s := New(Config{
		Telemetry:    telemetry.NewRegistry(),
		SLOObjective: time.Nanosecond, // everything misses
		SLOBudget:    0.01,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(context.Background())

	const n = 16
	for i := 0; i < 3; i++ {
		code, _, _, emsg := postTransform(t, ts.URL,
			TransformRequest{Nx: n, Ny: n, Nz: n, Ranks: 2}, randField(n*n*n, int64(i)))
		if code != http.StatusOK {
			t.Fatalf("transform %d: HTTP %d: %s", i, code, emsg)
		}
	}
	snap := s.SLO().Snapshot()
	if snap.Total != 3 || snap.Bad != 3 {
		t.Fatalf("slo total/bad = %d/%d, want 3/3", snap.Total, snap.Bad)
	}
	if snap.BurnRate <= 1 {
		t.Errorf("burn rate %v, want > 1", snap.BurnRate)
	}

	var hz map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &hz); code != http.StatusOK {
		t.Fatalf("/healthz: HTTP %d", code)
	}
	slo, ok := hz["slo"].(map[string]any)
	if !ok {
		t.Fatalf("/healthz has no slo section: %v", hz)
	}
	transform, ok := slo["transform"].(map[string]any)
	if !ok || transform["total"] != float64(3) {
		t.Fatalf("/healthz slo.transform wrong: %v", slo)
	}

	// Shed 4xx requests must not burn transform budget: a bad request
	// (size over the element cap) is the client's problem.
	s2 := New(Config{MaxElements: 8})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer s2.Drain(context.Background())
	code, _, _, _ := postTransform(t, ts2.URL,
		TransformRequest{Nx: n, Ny: n, Nz: n, Ranks: 2}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("oversized request: HTTP %d, want 400", code)
	}
	if got := s2.SLO().Snapshot().Total; got != 0 {
		t.Errorf("4xx burned SLO budget: total = %d", got)
	}
}

// TestObserveRequestIDEcho: a client-supplied X-Request-Id is echoed and
// used as the flight-recorder key; distinct requests without one get
// distinct minted IDs.
func TestObserveRequestIDEcho(t *testing.T) {
	s := New(Config{Telemetry: telemetry.NewRegistry(), Trace: true, SlowMin: time.Nanosecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(context.Background())

	// Hand-rolled request so the X-Request-Id header can be set.
	const n = 16
	var body bytes.Buffer
	if err := WriteHeader(&body, TransformRequest{Nx: n, Ny: n, Nz: n, Ranks: 2}); err != nil {
		t.Fatal(err)
	}
	if err := WritePayload(&body, randField(n*n*n, 3)); err != nil {
		t.Fatal(err)
	}
	hreq, _ := http.NewRequest("POST", ts.URL+"/v1/transform", &body)
	hreq.Header.Set("X-Request-Id", "my-trace-42")
	hres, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hres.Body)
	hres.Body.Close()
	if hres.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", hres.StatusCode)
	}
	if got := hres.Header.Get("X-Request-Id"); got != "my-trace-42" {
		t.Fatalf("echoed ID = %q", got)
	}
	if s.Flight().Get("my-trace-42") == nil {
		t.Fatal("client-supplied ID not used as the flight-recorder key")
	}

	// Minted IDs are unique across requests.
	_, r1, _, _ := postTransform(t, ts.URL, TransformRequest{Nx: n, Ny: n, Nz: n, Ranks: 2}, randField(n*n*n, 4))
	_, r2, _, _ := postTransform(t, ts.URL, TransformRequest{Nx: n, Ny: n, Nz: n, Ranks: 2}, randField(n*n*n, 5))
	if r1.RequestID == r2.RequestID || r1.RequestID == "" {
		t.Fatalf("minted IDs not unique: %q vs %q", r1.RequestID, r2.RequestID)
	}
}

// TestObserveDebugRequestMiss: an unknown ID is a clean 404, not a panic
// or an empty 200.
func TestObserveDebugRequestMiss(t *testing.T) {
	s := New(Config{Telemetry: telemetry.NewRegistry()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(context.Background())
	res, err := http.Get(ts.URL + "/debug/requests/nope")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusNotFound {
		t.Fatalf("HTTP %d, want 404", res.StatusCode)
	}
	var er ErrorResponse
	if err := json.NewDecoder(res.Body).Decode(&er); err != nil {
		t.Fatalf("404 body not an ErrorResponse: %v", err)
	}
	if er.Error == "" {
		t.Fatal("404 carries no explanation")
	}
}

// TestObserveUntracedStillRecorded: with tracing off, requests still land
// in the flight recorder (stage latencies, no spans) — the debug
// endpoints must degrade, not disappear.
func TestObserveUntracedStillRecorded(t *testing.T) {
	s := New(Config{Telemetry: telemetry.NewRegistry(), SlowMin: time.Nanosecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(context.Background())

	const n = 16
	code, resp, _, emsg := postTransform(t, ts.URL,
		TransformRequest{Nx: n, Ny: n, Nz: n, Ranks: 2}, randField(n*n*n, 11))
	if code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", code, emsg)
	}
	var rec telemetry.RequestRecord
	if code := getJSON(t, ts.URL+"/debug/requests/"+resp.RequestID, &rec); code != http.StatusOK {
		t.Fatalf("untraced request not captured: HTTP %d", code)
	}
	if len(rec.Spans) != 0 {
		t.Errorf("untraced record has %d spans", len(rec.Spans))
	}
	if rec.ExecNs <= 0 {
		t.Errorf("untraced record lacks exec latency: %+v", rec)
	}
}
