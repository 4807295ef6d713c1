package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"offt/internal/telemetry"
)

// statusRecorder captures the status code a handler wrote so the request
// observer can classify the outcome, and files the request (beforeLast,
// idempotent) ahead of the write that completes a response of declared
// length: a client that has read its whole response may ask
// /debug/requests/{id} at once. A response without a Content-Length is
// small enough that net/http holds it back until the handler — and with
// it the deferred finish — has returned.
type statusRecorder struct {
	http.ResponseWriter
	status     int
	written    int
	beforeLast func()
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	r.written += len(b)
	if n, err := strconv.Atoi(r.Header().Get("Content-Length")); err == nil && r.written >= n {
		r.beforeLast()
	}
	return r.ResponseWriter.Write(b)
}

// reqSeq numbers requests within the process; combined with the server's
// startup-time prefix it yields request IDs unique across restarts.
var reqSeq atomic.Uint64

// reqObs is the per-request observability context: the request ID, the
// trace (nil when tracing is off), and the stage latencies the handler
// fills in as it goes. finish() files the completed request with the
// flight recorder, the SLO, and the structured log exactly once: ahead of
// the response's last write when its length was declared (see
// statusRecorder), from the handler's defer otherwise.
type reqObs struct {
	s        *Server
	w        *statusRecorder
	tc       *telemetry.TraceContext
	rootID   int
	id       string
	endpoint string
	start    time.Time

	planKey    string
	decomp     string
	cacheHit   bool
	queueNs    int64
	acquireNs  int64
	execNs     int64
	downgrades int64
	overlap    float64 // -1 until measured
	errMsg     string
	reasons    []string // pre-seeded promotion reasons ("watchdog")
	done       bool
}

// newReqObs starts observing one request. The client may supply its own
// X-Request-Id (echoed back); otherwise one is minted. A TraceContext is
// attached only when the server runs with tracing enabled.
func (s *Server) newReqObs(w http.ResponseWriter, r *http.Request, endpoint string) *reqObs {
	id := r.Header.Get("X-Request-Id")
	if id == "" {
		id = fmt.Sprintf("%s-%06d", s.reqPrefix, reqSeq.Add(1))
	}
	w.Header().Set("X-Request-Id", id)
	o := &reqObs{
		s:        s,
		id:       id,
		endpoint: endpoint,
		start:    time.Now(),
		overlap:  -1,
	}
	o.w = &statusRecorder{ResponseWriter: w, beforeLast: o.finish}
	if s.cfg.Trace {
		o.tc = telemetry.NewTraceContext(id)
		o.rootID = o.tc.Begin("request")
	}
	return o
}

// fail notes the error a non-200 outcome is about to be written with, so
// the flight record carries the cause, not just the status code.
func (o *reqObs) fail(err error) {
	if err != nil {
		o.errMsg = err.Error()
	}
}

// finish files the request: span tree snapshot into the flight recorder,
// outcome into the SLO window, and one structured log line. Idempotent.
func (o *reqObs) finish() {
	if o.done {
		return
	}
	o.done = true
	o.tc.End(o.rootID)
	status := o.w.status
	if status == 0 {
		status = http.StatusOK
	}
	totalNs := time.Since(o.start).Nanoseconds()

	// SLO: 5xx and 504s burn budget as failures; 2xx burn it when they
	// miss the latency objective. Client errors (4xx) and shed 429s are
	// excluded — they say nothing about the service's own health.
	if status < 400 || status >= 500 {
		o.s.slo.Observe(totalNs, status >= 500)
	}

	rec := &telemetry.RequestRecord{
		ID:         o.id,
		Endpoint:   o.endpoint,
		PlanKey:    o.planKey,
		Start:      o.start,
		TotalNs:    totalNs,
		QueueNs:    o.queueNs,
		AcqNs:      o.acquireNs,
		ExecNs:     o.execNs,
		Status:     status,
		Error:      o.errMsg,
		Reasons:    o.reasons,
		Downgrades: o.downgrades,
		OverlapEff: o.overlap,
		CacheHit:   o.cacheHit,
		Truncated:  o.tc.Truncated(),
		Spans:      o.tc.Drain(),
	}
	reasons := o.s.flight.Record(rec)

	log := o.s.log
	if log != nil {
		lv := telemetry.LevelInfo
		switch {
		case status >= 500:
			lv = telemetry.LevelError
		case status >= 400 || len(reasons) > 0:
			lv = telemetry.LevelWarn
		}
		kv := []any{
			"req", o.id,
			"endpoint", o.endpoint,
			"status", status,
			"total_ns", totalNs,
		}
		if o.planKey != "" {
			kv = append(kv, "plan", o.planKey)
			if o.decomp != "" {
				kv = append(kv, "decomp", o.decomp)
			}
			kv = append(kv, "cache_hit", o.cacheHit,
				"queue_ns", o.queueNs, "exec_ns", o.execNs)
		}
		if o.overlap >= 0 {
			kv = append(kv, "overlap_eff", o.overlap)
		}
		if o.downgrades > 0 {
			kv = append(kv, "downgrades", o.downgrades)
		}
		if len(reasons) > 0 {
			kv = append(kv, "captured", fmt.Sprint(reasons))
		}
		if o.errMsg != "" {
			kv = append(kv, "error", o.errMsg)
		}
		log.Log(lv, "request.done", kv...)
	}
}

// handleDebugRequests serves GET /debug/requests: the flight recorder's
// listing view (slow threshold plus notable and recent rings).
func (s *Server) handleDebugRequests(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.flight.Snapshot())
}

// handleDebugRequest serves GET /debug/requests/{id}: the full record of
// one captured request including its span tree. ?format=chrome renders
// the span tree as Chrome trace-event JSON loadable in Perfetto.
func (s *Server) handleDebugRequest(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec := s.flight.Get(id)
	if rec == nil {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("serve: request %q is not in the flight recorder (it may have aged out)", id))
		return
	}
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", rec.ID+".trace.json"))
		_ = telemetry.SpansToTimeline(rec.ID, rec.Spans).WriteChromeTrace(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(rec)
}
