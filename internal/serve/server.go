// Package serve is the concurrent FFT service layer: a long-running HTTP
// control plane that executes forward/backward 3-D transforms over the
// public offt.Plan API. The paper's auto-tuned overlapped FFT is designed
// to be executed many times per tuned configuration (§6); this package is
// the long-lived process that realizes that amortization — plans (and
// their worlds of rank goroutines) persist in an LRU registry across
// requests, tuned parameters warm-start plan construction from a
// persisted store, and a weighted admission controller sheds overload
// with 429s instead of growing worlds until the process OOMs.
//
// Endpoints:
//
//	POST /v1/transform  — execute one transform (binary wire format, wire.go)
//	GET  /v1/plans      — list cached plans with exec/last-used accounting
//	GET  /healthz       — liveness + drain state
//	GET  /metrics       — Prometheus text;  /metrics.json — JSON snapshot
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"offt"
	"offt/internal/arena"
	"offt/internal/telemetry"
	"offt/internal/tuned"
)

// Config parameterizes a Server. The zero value is usable: every field
// has a production-safe default.
type Config struct {
	// MaxPlans caps the plan registry (default 8 live plans).
	MaxPlans int
	// MaxInFlightRanks is the admission capacity in rank-goroutine units:
	// a transform over a p-rank Mem plan holds p units while executing
	// (Sim transforms hold 1). Default 4×GOMAXPROCS-ish: 16.
	MaxInFlightRanks int
	// MaxQueue bounds the admission wait queue (default 64 requests;
	// negative = no queue, shed as soon as capacity is exhausted).
	MaxQueue int
	// DefaultTimeout caps a request's total admission+execution time when
	// the request names none (default 10s); requested timeouts are
	// clamped to it.
	DefaultTimeout time.Duration
	// MaxElements caps the per-request payload element count
	// (default 2^24 ≈ 16.7M complex128 = 256 MiB).
	MaxElements int
	// Store supplies tuned parameters for warm-started plan construction
	// (may be nil: every miss uses the default point).
	Store *tuned.Store
	// Telemetry receives the service metrics (may be nil: disabled).
	Telemetry *telemetry.Registry
	// FaultProfile injects deterministic communication faults into every
	// Mem world the server builds ("drop", "corrupt", "stall", "mixed";
	// "" or "none" = disabled). Chaos testing only.
	FaultProfile string
	// FaultSeed seeds the deterministic fault schedule (default 1).
	FaultSeed int64
	// Watchdog configures the mem-transport hang watchdog on built
	// plans: 0 = library default, negative = disabled (debugger
	// sessions; a hung rank then blocks until the request is abandoned).
	Watchdog time.Duration
	// Rebuild bounds the registry's quarantine-and-rebuild loop (zero
	// fields take defaults; see RebuildPolicy).
	Rebuild RebuildPolicy
	// ExecWatchdogFactor multiplies a plan's steady-state execution-time
	// EWMA into the per-request watchdog deadline (default 16).
	ExecWatchdogFactor int
	// ExecWatchdogMin floors the per-request watchdog deadline so jitter
	// on sub-millisecond transforms cannot trip it (default 250ms).
	ExecWatchdogMin time.Duration
	// Trace enables request-scoped tracing: every request carries a
	// TraceContext whose span tree (queue → acquire → exec → per-phase
	// and per-step) lands in the flight recorder at /debug/requests.
	// Plans are built with offt.WithTrace so executions record per-rank
	// step events; expect a small per-request overhead.
	Trace bool
	// Logger receives structured JSON log events (nil = logging off).
	Logger *telemetry.Logger
	// FlightRecent / FlightNotable size the flight recorder's rings
	// (defaults 128 recent / 64 notable; see telemetry.NewFlightRecorder).
	FlightRecent  int
	FlightNotable int
	// SlowFactor and SlowMin set the flight recorder's slow-capture
	// policy: a request is "slow" when its total latency exceeds
	// p99-EWMA × SlowFactor and SlowMin both (defaults 4× and 500µs).
	SlowFactor float64
	SlowMin    time.Duration
	// SLOObjective is the transform latency objective (default 250ms);
	// SLOWindow the rolling error-budget window (default 1m); SLOBudget
	// the allowed bad fraction within the window (default 1%).
	SLOObjective time.Duration
	SLOWindow    time.Duration
	SLOBudget    float64
}

func (c *Config) fill() {
	if c.MaxPlans <= 0 {
		c.MaxPlans = 8
	}
	if c.MaxInFlightRanks <= 0 {
		c.MaxInFlightRanks = 16
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	} else if c.MaxQueue == 0 {
		c.MaxQueue = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxElements <= 0 {
		c.MaxElements = 1 << 24
	}
	if c.ExecWatchdogFactor <= 0 {
		c.ExecWatchdogFactor = 16
	}
	if c.ExecWatchdogMin <= 0 {
		c.ExecWatchdogMin = 250 * time.Millisecond
	}
	if c.SLOObjective <= 0 {
		c.SLOObjective = 250 * time.Millisecond
	}
	// SLOWindow and SLOBudget defaults live in telemetry.NewSLO;
	// FlightRecent/FlightNotable defaults in telemetry.NewFlightRecorder.
}

// Server is the FFT service. Build with New, expose Handler over any
// http.Server, and call Drain on shutdown.
type Server struct {
	cfg      Config
	registry *Registry
	adm      *Admission
	mux      *http.ServeMux
	draining atomic.Bool
	shard    *ShardRouter // nil when unsharded; see EnableShard

	requests      *telemetry.Counter
	transNs       *telemetry.Histogram
	plansNs       *telemetry.Histogram
	healthNs      *telemetry.Histogram
	errors400     *telemetry.Counter
	errors429     *telemetry.Counter
	errors5xx     *telemetry.Counter
	watchdogTrips *telemetry.Counter

	flight    *telemetry.FlightRecorder
	slo       *telemetry.SLO
	log       *telemetry.Logger
	reqPrefix string
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg.fill()
	reg := cfg.Telemetry
	s := &Server{
		cfg:           cfg,
		registry:      NewRegistry(cfg.MaxPlans, reg),
		adm:           NewAdmission(cfg.MaxInFlightRanks, cfg.MaxQueue, reg),
		requests:      reg.Counter("serve.http.requests"),
		transNs:       reg.Histogram("serve.http.transform.ns"),
		plansNs:       reg.Histogram("serve.http.plans.ns"),
		healthNs:      reg.Histogram("serve.http.healthz.ns"),
		errors400:     reg.Counter("serve.http.errors.400"),
		errors429:     reg.Counter("serve.http.errors.429"),
		errors5xx:     reg.Counter("serve.http.errors.5xx"),
		watchdogTrips: reg.Counter("serve.watchdog.trips"),
		flight:        telemetry.NewFlightRecorder(cfg.FlightRecent, cfg.FlightNotable),
		slo:           telemetry.NewSLO(cfg.SLOObjective, cfg.SLOWindow, cfg.SLOBudget),
		log:           cfg.Logger,
		reqPrefix:     fmt.Sprintf("r%08x", uint32(time.Now().UnixNano())),
	}
	if cfg.SlowFactor > 0 || cfg.SlowMin > 0 {
		s.flight.SetSlowPolicy(cfg.SlowFactor, cfg.SlowMin)
	}
	s.slo.Register(reg, "serve.slo.transform")
	s.registry.SetRebuildPolicy(cfg.Rebuild)
	s.registry.SetLogger(cfg.Logger)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/transform", s.timed(s.transNs, s.handleTransform))
	s.mux.HandleFunc("GET /v1/plans", s.timed(s.plansNs, s.handlePlans))
	s.mux.HandleFunc("GET /healthz", s.timed(s.healthNs, s.handleHealthz))
	s.mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	s.mux.HandleFunc("GET /debug/requests/{id}", s.handleDebugRequest)
	s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	s.mux.HandleFunc("GET /metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = reg.WriteJSON(w)
	})
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the plan registry (read-only use: snapshots, tests).
func (s *Server) Registry() *Registry { return s.registry }

// Admission exposes the admission controller (tests, introspection).
func (s *Server) Admission() *Admission { return s.adm }

// Flight exposes the flight recorder (tests).
func (s *Server) Flight() *telemetry.FlightRecorder { return s.flight }

// SLO exposes the transform SLO window (tests).
func (s *Server) SLO() *telemetry.SLO { return s.slo }

// timed wraps a handler with a per-endpoint latency histogram and the
// request counter.
func (s *Server) timed(h *telemetry.Histogram, fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests.Inc()
		start := time.Now()
		fn(w, r)
		h.Observe(time.Since(start).Nanoseconds())
	}
}

// Drain performs the graceful-shutdown sequence: stop admission (queued
// waiters shed with 503, /healthz flips to draining), wait for in-flight
// transforms to complete within ctx, then close every cached plan's
// world. Safe to call more than once.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.adm.Drain()
	waitErr := s.adm.WaitIdle(ctx)
	closeErr := s.registry.CloseAll()
	if s.shard != nil {
		// Stop probing peers; routing stays live off the last-known peer
		// table so late-arriving requests still reroute to live replicas.
		s.shard.Stop()
	}
	if waitErr != nil {
		return waitErr
	}
	return closeErr
}

// writeUnavailable sends a 503 whose Retry-After header tells the client
// when the quarantined plan's rebuild is next expected to admit.
func (s *Server) writeUnavailable(w http.ResponseWriter, err error) {
	var qe *QuarantinedError
	if errors.As(err, &qe) && qe.RetryAfter > 0 {
		secs := int((qe.RetryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	s.writeError(w, http.StatusServiceUnavailable, err)
}

// writeError sends a JSON error body with the given status code.
func (s *Server) writeError(w http.ResponseWriter, code int, err error) {
	switch {
	case code == http.StatusBadRequest:
		s.errors400.Inc()
	case code == http.StatusTooManyRequests:
		s.errors429.Inc()
	case code >= 500 && code != http.StatusServiceUnavailable:
		s.errors5xx.Inc()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(ErrorResponse{Status: "error", Error: err.Error()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	rh := s.registry.HealthSnapshot()
	status, code := "ok", http.StatusOK
	if rh.Quarantined > 0 {
		// Degraded, not down: other keys still serve, and the rebuild
		// loop is working the quarantined ones — keep the 200 so load
		// balancers don't amplify a single bad plan into an outage.
		status = "degraded"
	}
	if s.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	w.WriteHeader(code)
	body := map[string]any{
		"status":         status,
		"plans":          rh.Plans,
		"inflight_ranks": s.adm.InUse(),
		"queue_depth":    s.adm.QueueLen(),
		"quarantined":    rh.Quarantined,
		"rebuilding":     rh.Rebuilding,
		"broken":         rh.Broken,
		"quarantines":    rh.Quarantines,
		"rebuilds":       rh.Rebuilds,
		"downgrades":     rh.Downgrades,
		"watchdog_trips": s.watchdogTrips.Value(),
		"slo":            map[string]any{"transform": s.slo.Snapshot()},
		"flight": map[string]any{
			"slow_threshold_ns": s.flight.Threshold(),
		},
	}
	if s.shard != nil {
		body["shard"] = map[string]any{
			"self":           s.shard.SelfURL(),
			"peers":          s.shard.Health(),
			"local":          s.shard.localC.Value(),
			"forwarded":      s.shard.forwardC.Value(),
			"forward_errors": s.shard.forwardErrC.Value(),
			"drain_reroutes": s.shard.reroutedC.Value(),
		}
	}
	_ = json.NewEncoder(w).Encode(body)
}

func (s *Server) handlePlans(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(map[string]any{"plans": s.registry.Snapshot()})
}

// transformSpec is a validated, resolved transform request.
type transformSpec struct {
	key      PlanKey
	backward bool
	timeout  time.Duration
	weight   int
}

// resolve validates the request header and resolves the effective plan
// key by handing the whole option set to offt.DescribePlan — one shared
// validation and parameter-resolution path (explicit params > tuned
// store > default point) for the library and the wire.
func (s *Server) resolve(req *TransformRequest) (transformSpec, error) {
	if req.Ranks == 0 {
		req.Ranks = 1
	}
	if req.Workers == 0 {
		req.Workers = 1
	}
	if req.Machine == "" {
		req.Machine = "laptop"
	}
	if req.Workers < 1 {
		return transformSpec{}, fmt.Errorf("workers %d must be at least 1", req.Workers)
	}
	decomp, err := offt.ParseDecomp(req.Decomp)
	if err != nil {
		return transformSpec{}, err
	}
	var commOpt []offt.Option
	if req.Comm != "" {
		alg, err := offt.ParseComm(req.Comm)
		if err != nil {
			return transformSpec{}, err
		}
		commOpt = append(commOpt, offt.WithComm(alg))
	}
	// Overflow-safe volume cap: multiply stepwise, rejecting before the
	// product can wrap. A crafted nx=ny=nz≈2.1M request would otherwise
	// overflow int64 to a negative volume, pass the cap, and panic in
	// plan construction on an out-of-range slice length.
	vol := req.Nx
	for _, dim := range [2]int{req.Ny, req.Nz} {
		if vol > s.cfg.MaxElements/dim {
			return transformSpec{}, fmt.Errorf("grid %d×%d×%d exceeds the server's %d-element cap",
				req.Nx, req.Ny, req.Nz, s.cfg.MaxElements)
		}
		vol *= dim
	}
	if vol > s.cfg.MaxElements {
		return transformSpec{}, fmt.Errorf("grid %d×%d×%d (%d elements) exceeds the server's %d-element cap",
			req.Nx, req.Ny, req.Nz, vol, s.cfg.MaxElements)
	}

	variant := offt.NEW
	if req.Variant != "" {
		v, err := offt.ParseVariant(req.Variant)
		if err != nil {
			return transformSpec{}, err
		}
		variant = v
	}

	var engine offt.EngineKind
	switch req.Engine {
	case "", "mem":
		engine = offt.Mem
	case "sim":
		engine = offt.Sim
	default:
		return transformSpec{}, fmt.Errorf("unknown engine %q (want mem or sim)", req.Engine)
	}

	var backward bool
	switch req.Direction {
	case "", "forward":
	case "backward":
		backward = true
		if engine == offt.Sim {
			return transformSpec{}, fmt.Errorf("the sim engine does not support backward transforms")
		}
		if variant == offt.TH || variant == offt.TH0 {
			return transformSpec{}, fmt.Errorf("backward transform does not support the %v comparison model", variant)
		}
	default:
		return transformSpec{}, fmt.Errorf("unknown direction %q (want forward or backward)", req.Direction)
	}

	// The description is the plan key: DescribePlan validates the full
	// option set and resolves effective params with canonical provenance,
	// so "explicit default", "warm-started" and "omitted" requests share
	// one cache entry.
	opts := []offt.Option{
		offt.WithGrid(req.Nx, req.Ny, req.Nz),
		offt.WithRanks(req.Ranks),
		offt.WithDecomp(decomp),
		offt.WithVariant(variant),
		offt.WithEngine(engine),
		offt.WithWorkers(req.Workers),
		offt.WithMachine(req.Machine),
		offt.WithTunedStoreHandle(s.cfg.Store),
	}
	if req.Params != nil {
		opts = append(opts, offt.WithParams(*req.Params))
	}
	opts = append(opts, commOpt...)
	desc, err := offt.DescribePlan(opts...)
	if err != nil {
		return transformSpec{}, err
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMs > 0 {
		if d := time.Duration(req.TimeoutMs) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	weight := req.Ranks * req.Workers
	if engine == offt.Sim {
		weight = 1 // no world of rank goroutines; one model evaluation
	}
	// A weight above total capacity can never be admitted: that is a
	// configuration mismatch (400), not transient overload — a 429 would
	// invite retries that cannot ever succeed.
	if weight > s.cfg.MaxInFlightRanks {
		return transformSpec{}, fmt.Errorf(
			"ranks×workers = %d exceeds the server's admission capacity of %d rank-goroutine units; reduce ranks or workers",
			weight, s.cfg.MaxInFlightRanks)
	}
	return transformSpec{
		key:      desc,
		backward: backward,
		timeout:  timeout,
		weight:   weight,
	}, nil
}

// buildPlan constructs the offt.Plan for a resolved key: the description
// pins the plan identity, the options add the server's operational
// machinery (fault injection into Mem worlds, watchdog).
func (s *Server) buildPlan(key PlanKey) (*offt.Plan, error) {
	var opts []offt.Option
	if key.Engine == offt.Mem && s.cfg.FaultProfile != "" && s.cfg.FaultProfile != "none" {
		prof, err := offt.ParseFaultProfile(s.cfg.FaultProfile)
		if err != nil {
			return nil, err
		}
		opts = append(opts, offt.WithFaults(prof, s.cfg.FaultSeed))
	}
	switch {
	case s.cfg.Watchdog > 0:
		opts = append(opts, offt.WithWatchdog(s.cfg.Watchdog))
	case s.cfg.Watchdog < 0:
		opts = append(opts, offt.WithWatchdog(0))
	}
	if s.cfg.Trace {
		opts = append(opts, offt.WithTrace())
	}
	return offt.NewPlanFrom(key, opts...)
}

// execDeadline derives the per-request execution watchdog deadline from
// the plan's measured steady-state time: factor× the EWMA, floored so
// jitter on short transforms cannot trip it. Returns 0 (no watchdog)
// until a first successful execution has been measured — the request
// deadline and the mem-transport hang watchdog cover the cold path.
func (s *Server) execDeadline(e *planEntry) time.Duration {
	steady := e.SteadyNs()
	if steady <= 0 {
		return 0
	}
	d := time.Duration(steady) * time.Duration(s.cfg.ExecWatchdogFactor)
	if d < s.cfg.ExecWatchdogMin {
		d = s.cfg.ExecWatchdogMin
	}
	return d
}

func (s *Server) handleTransform(hw http.ResponseWriter, r *http.Request) {
	// Every transform is observed: request ID, span tree (when tracing),
	// SLO accounting, flight-recorder capture and one structured log line.
	// obs.w wraps the ResponseWriter so finish() can read the status code.
	obs := s.newReqObs(hw, r, "transform")
	defer obs.finish()
	w := obs.w

	// A forwarded request already crossed one replica hop: it executes
	// here no matter what the local ring says (loop guard), and a
	// draining receiver sheds it with 503 so the forwarder retries a
	// live replica. Client-originated requests on a draining sharded
	// replica instead reroute (routeTransform excludes self).
	forwarded := s.shard != nil && r.Header.Get(shardForwardedHeader) != ""
	if s.draining.Load() && (s.shard == nil || forwarded) {
		obs.fail(ErrDraining)
		s.writeError(w, http.StatusServiceUnavailable, ErrDraining)
		return
	}
	rawHdr, err := ReadRawHeader(r.Body)
	if err != nil {
		obs.fail(err)
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	var req TransformRequest
	if err := DecodeRawHeader(rawHdr, &req); err != nil {
		obs.fail(err)
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	spec, err := s.resolve(&req)
	if err != nil {
		obs.fail(err)
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	obs.planKey = spec.key.String()
	if spec.key.Decomp == offt.Pencil {
		obs.decomp = spec.key.Decomp.String()
	}

	if s.shard != nil && !forwarded {
		s.routeTransform(obs, r, spec, rawHdr)
		return
	}
	if forwarded {
		// Count forwarded-in executions as local work: the shard section
		// of /healthz then shows where the fleet actually executes.
		s.shard.localC.Inc()
	}
	s.executeTransform(obs, r, spec, r.Body)
}

// executeTransform runs a resolved transform locally: admission, plan
// acquisition, watchdogged execution, response streaming. payload is the
// request body positioned just past the header (or a replayed buffer
// when the shard router fell back to local execution after a failed
// forward).
func (s *Server) executeTransform(obs *reqObs, r *http.Request, spec transformSpec, payload io.Reader) {
	w := obs.w

	// Admission: bounded wait for rank-weight capacity. The deadline
	// covers queueing and execution both. The trace context rides the
	// request context so the plan's execution path can emit spans into it.
	rctx := r.Context()
	if obs.tc != nil {
		rctx = telemetry.ContextWithTrace(rctx, obs.tc)
	}
	ctx, cancel := context.WithTimeout(rctx, spec.timeout)
	defer cancel()
	queued := time.Now()
	queueSpan := obs.tc.Begin("queue")
	err := s.adm.Acquire(ctx, spec.weight)
	obs.tc.End(queueSpan)
	obs.queueNs = time.Since(queued).Nanoseconds()
	if err != nil {
		obs.fail(err)
		switch {
		case errors.Is(err, ErrDraining):
			s.writeError(w, http.StatusServiceUnavailable, err)
		case errors.Is(err, ErrOverloaded):
			s.writeError(w, http.StatusTooManyRequests, err)
		default:
			s.writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	// Releases are once-guarded: the watchdog/abandon paths hand them to a
	// reaper goroutine that waits out the hung transform, and the deferred
	// calls must then be no-ops.
	var admOnce sync.Once
	releaseAdmission := func() { admOnce.Do(func() { s.adm.Release(spec.weight) }) }
	defer releaseAdmission()
	queueNs := obs.queueNs

	// Plan acquisition (singleflight build on miss, warm-started params
	// already resolved into the key).
	acquired := time.Now()
	acquireSpan := obs.tc.Begin("acquire")
	entry, built, err := s.registry.Acquire(ctx, spec.key, func() (*offt.Plan, error) { return s.buildPlan(spec.key) })
	obs.tc.End(acquireSpan)
	obs.acquireNs = time.Since(acquired).Nanoseconds()
	obs.cacheHit = !built
	if err != nil {
		obs.fail(err)
		switch {
		case errors.Is(err, offt.ErrBadShape), errors.Is(err, offt.ErrBadConfig):
			s.writeError(w, http.StatusBadRequest, err)
		case errors.Is(err, ErrPlanQuarantined):
			// The key's world failed and its circuit breaker is open:
			// fast 503 with Retry-After instead of queueing on a dead
			// world.
			s.writeUnavailable(w, err)
		case errors.Is(err, ErrDraining):
			s.writeError(w, http.StatusServiceUnavailable, err)
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			// Deadline expired while waiting out another request's plan
			// build: shed like admission does, the plan may be ready on
			// retry.
			s.writeError(w, http.StatusTooManyRequests, fmt.Errorf("%w: %w", ErrOverloaded, err))
		default:
			// Parameter validation failures surface here too; they are
			// caller errors, not server faults.
			s.writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	var refOnce sync.Once
	releaseRef := func() { refOnce.Do(func() { s.registry.Release(entry) }) }
	defer releaseRef()
	plan := entry.Plan()

	resp := TransformResponse{
		Status:    "ok",
		PlanKey:   spec.key.String(),
		RequestID: obs.id,
		CacheHit:  !built,
		QueueNs:   queueNs,
	}
	if spec.key.Params.Comm != offt.CommPairwise {
		resp.Comm = spec.key.Params.Comm.String()
	}
	if spec.key.Decomp == offt.Pencil {
		resp.Decomp = spec.key.Decomp.String()
	}

	if spec.key.Engine == offt.Sim {
		start := time.Now()
		simSpan := obs.tc.Begin("exec")
		if _, err := plan.Forward(nil); err != nil {
			obs.tc.End(simSpan)
			obs.fail(err)
			s.writeError(w, http.StatusInternalServerError, err)
			return
		}
		obs.tc.End(simSpan)
		entry.RecordExec(time.Since(start).Nanoseconds())
		obs.execNs = time.Since(start).Nanoseconds()
		resp.ExecNs = obs.execNs
		resp.VirtualNs, resp.TunedNs = plan.VirtualTimes()
		resp.Execs = entry.execs.Load()
		hdr, err := MarshalHeader(resp)
		if err != nil {
			s.writeError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(hdr)))
		_, _ = w.Write(hdr)
		return
	}

	// Mem engine: read the payload, execute, stream the result back.
	// Buffers go back to the arena only when the transform goroutine is
	// known to be done with them — the abandon paths below set abandoned
	// and delegate the release to a reaper that waits out the straggler.
	n := spec.key.Nx * spec.key.Ny * spec.key.Nz
	abandoned := false
	inBuf := arena.Get(n)
	defer func() {
		if !abandoned {
			inBuf.Release()
		}
	}()
	in := inBuf.Data
	if err := ReadPayloadInto(payload, in); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	outBuf := arena.Get(n)
	defer func() {
		if !abandoned {
			outBuf.Release()
		}
	}()
	out := outBuf.Data

	// Execute under a per-request watchdog: the deadline is the plan's
	// measured steady-state time × a safety factor, so a hung rank can
	// never hold admission weight for the full request timeout.
	type execResult struct {
		err error
		ns  int64
		st  offt.ExecStats
	}
	done := make(chan execResult, 1)
	go func() {
		start := time.Now()
		var st offt.ExecStats
		var eerr error
		if spec.backward {
			st, eerr = plan.BackwardIntoCtx(ctx, out, in)
		} else {
			st, eerr = plan.ForwardIntoCtx(ctx, out, in)
		}
		done <- execResult{eerr, time.Since(start).Nanoseconds(), st}
	}()

	wdDeadline := s.execDeadline(entry)
	var watchc <-chan time.Time
	if wdDeadline > 0 {
		t := time.NewTimer(wdDeadline)
		defer t.Stop()
		watchc = t.C
	}

	// reap recycles the request's resources once the abandoned transform
	// resolves. Failing the world (watchdog path) or the mem-transport
	// hang watchdog (deadline path) guarantees it does resolve; until
	// then the pooled buffers must not be reused.
	reap := func() {
		abandoned = true
		go func() {
			<-done
			inBuf.Release()
			outBuf.Release()
			releaseRef()
			releaseAdmission()
		}()
	}

	var res execResult
	select {
	case res = <-done:
	case <-watchc:
		// Watchdog fired: a transform that is factor× slower than the
		// plan's own steady state means a rank is hung, not slow. Kill
		// the world (unblocking the transform goroutine), quarantine the
		// plan, and answer with the breaker's 503.
		s.watchdogTrips.Inc()
		s.log.Warn("watchdog.tripped", "req", obs.id, "plan", obs.planKey,
			"deadline_ns", int64(wdDeadline), "steady_ns", entry.SteadyNs())
		cause := fmt.Errorf("serve: request watchdog: execution exceeded %v (steady-state %v × factor %d)",
			wdDeadline, time.Duration(entry.SteadyNs()), s.cfg.ExecWatchdogFactor)
		plan.Fail(cause)
		qe := s.registry.MarkFailed(entry, cause)
		reap()
		obs.reasons = append(obs.reasons, "watchdog")
		obs.fail(cause)
		s.writeUnavailable(w, qe)
		return
	case <-ctx.Done():
		// The request deadline expired mid-execution. The plan is not
		// (yet) proven at fault — a healthy-but-slow transform under a
		// tight client deadline must not be quarantined — so abandon the
		// request and let the transform finish (or the mem hang watchdog
		// fail it) in the background.
		reap()
		err := fmt.Errorf("serve: transform exceeded the request deadline: %w", ctx.Err())
		obs.fail(err)
		s.writeError(w, http.StatusGatewayTimeout, err)
		return
	}
	if res.err != nil {
		obs.fail(res.err)
		switch {
		case errors.Is(res.err, offt.ErrWorldFailed):
			// The world died under this transform (injected faults, hang
			// watchdog abort, hard failure): quarantine the plan so the
			// background rebuild starts, and tell the client when to
			// retry.
			qe := s.registry.MarkFailed(entry, res.err)
			s.writeUnavailable(w, qe)
		case errors.Is(res.err, context.DeadlineExceeded), errors.Is(res.err, context.Canceled):
			// The deadline expired before dispatch even began (the plan's
			// own ctx pre-check): same outcome as the select's ctx branch.
			s.writeError(w, http.StatusGatewayTimeout,
				fmt.Errorf("serve: transform exceeded the request deadline: %w", res.err))
		default:
			s.writeError(w, http.StatusInternalServerError, res.err)
		}
		return
	}
	entry.RecordExec(res.ns)
	obs.execNs = res.ns
	obs.downgrades = res.st.Downgrades
	if res.st.Breakdown.Total > 0 {
		obs.overlap = res.st.OverlapEfficiency()
		resp.OverlapEfficiency = obs.overlap
	}
	resp.ExecNs = res.ns
	resp.Elements = n
	resp.Execs = entry.execs.Load()
	resp.Downgrades = plan.Downgrades()

	hdr, err := MarshalHeader(resp)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	// An exact Content-Length sidesteps chunked transfer framing: the
	// 4 MiB-scale payload crosses the loopback in a handful of large
	// writes instead of per-chunk frames the client must reparse.
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(hdr)+16*n))
	if _, err := w.Write(hdr); err != nil {
		return // client went away; nothing to salvage
	}
	_ = WritePayload(w, out)
}
