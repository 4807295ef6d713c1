package serve

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"offt"
	"offt/internal/telemetry"
)

// PlanKey identifies one cached plan: it is offt's canonical plan
// description, produced by offt.DescribePlan from the request — so the
// registry, the /v1/plans listing, and the plans the registry builds all
// share one source of identity. Params are the *resolved* effective
// parameters (explicit request params, else tuned-store warm start, else
// the default point) and Provenance is canonicalized, so a request that
// spells out the default configuration and one that omits it share a
// single plan. The struct is comparable and used directly as the cache
// map key.
type PlanKey = offt.PlanDescription

// PlanHealth is one state of a cached plan's fault lifecycle:
//
//	healthy ──ErrWorldFailed──▶ quarantined ──teardown──▶ rebuilding
//	   ▲                                                     │
//	   └──────────── rebuild succeeded ◀─────────────────────┤
//	                                                         ▼
//	                        broken (rebuilds exhausted; half-open probe
//	                        re-arms one rebuild after the breaker window)
type PlanHealth int

const (
	// HealthHealthy: the plan serves requests.
	HealthHealthy PlanHealth = iota
	// HealthQuarantined: the world failed; new acquires fast-fail while
	// in-flight references drain and the dead world is torn down.
	HealthQuarantined
	// HealthRebuilding: a background goroutine is rebuilding the world
	// with capped exponential backoff.
	HealthRebuilding
	// HealthBroken: consecutive rebuilds exhausted the attempt budget;
	// the breaker stays open for a full cap window, after which the next
	// acquire re-arms a single probe rebuild (half-open).
	HealthBroken
)

func (h PlanHealth) String() string {
	switch h {
	case HealthHealthy:
		return "healthy"
	case HealthQuarantined:
		return "quarantined"
	case HealthRebuilding:
		return "rebuilding"
	case HealthBroken:
		return "broken"
	}
	return fmt.Sprintf("health(%d)", int(h))
}

// ErrPlanQuarantined is the sentinel every *QuarantinedError wraps: the
// requested plan's world failed and is being rebuilt, so the request is
// refused fast (503 + Retry-After on the wire) instead of queueing
// behind a dead world.
var ErrPlanQuarantined = errors.New("serve: plan quarantined, world rebuild in progress")

// QuarantinedError is the typed fast-failure returned by Acquire while a
// plan key's circuit breaker is open.
type QuarantinedError struct {
	Key        string
	RetryAfter time.Duration // when the rebuild is next expected to admit
	Broken     bool          // rebuild attempts exhausted (half-open probing)
	Cause      error         // the world failure that opened the breaker
}

func (e *QuarantinedError) Error() string {
	state := "quarantined"
	if e.Broken {
		state = "broken"
	}
	return fmt.Sprintf("serve: plan %s %s (retry in %v): %v", e.Key, state, e.RetryAfter.Round(time.Millisecond), e.Cause)
}

func (e *QuarantinedError) Is(target error) bool { return target == ErrPlanQuarantined }
func (e *QuarantinedError) Unwrap() error        { return e.Cause }

// RebuildPolicy bounds the quarantine-and-rebuild loop.
type RebuildPolicy struct {
	// BackoffBase is the delay before the first rebuild attempt; each
	// consecutive failure doubles it up to BackoffCap. Default 100ms.
	BackoffBase time.Duration
	// BackoffCap caps the exponential backoff and sizes the broken
	// breaker's half-open window. Default 3s.
	BackoffCap time.Duration
	// MaxAttempts is how many consecutive rebuild failures flip the key
	// to HealthBroken. Default 6.
	MaxAttempts int
}

func (p *RebuildPolicy) fill() {
	if p.BackoffBase <= 0 {
		p.BackoffBase = 100 * time.Millisecond
	}
	if p.BackoffCap < p.BackoffBase {
		p.BackoffCap = 3 * time.Second
		if p.BackoffCap < p.BackoffBase {
			p.BackoffCap = p.BackoffBase
		}
	}
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 6
	}
}

// planEntry is one registry slot. ready is closed once the singleflight
// build finishes (plan or err set); refs, lastUsed and health are guarded
// by the registry mutex; execs and steadyNs are atomic so the hot path
// can bump them without the registry lock.
type planEntry struct {
	key   PlanKey
	ready chan struct{}
	plan  *offt.Plan
	err   error
	build func() (*offt.Plan, error) // captured for background rebuilds

	refs     int
	health   PlanHealth
	lastUsed time.Time
	created  time.Time
	execs    atomic.Int64
	steadyNs atomic.Int64 // EWMA of successful exec wall time (watchdog source)
	elem     *list.Element
}

// Plan returns the built plan (valid after Acquire succeeds).
func (e *planEntry) Plan() *offt.Plan { return e.plan }

// RecordExec bumps the entry's execution count and folds the execution's
// wall time into the steady-state EWMA the request watchdog derives its
// deadline from.
func (e *planEntry) RecordExec(execNs int64) {
	e.execs.Add(1)
	if execNs <= 0 {
		return
	}
	for {
		old := e.steadyNs.Load()
		next := execNs
		if old > 0 {
			// 1/4 new, 3/4 old: converges in a few execs, rides out the
			// slow cold-cache first transform.
			next = old - old/4 + execNs/4
		}
		if e.steadyNs.CompareAndSwap(old, next) {
			return
		}
	}
}

// SteadyNs returns the plan's measured steady-state execution time EWMA
// in nanoseconds (0 until the first successful execution).
func (e *planEntry) SteadyNs() int64 { return e.steadyNs.Load() }

// breakerState is the per-key circuit breaker and rebuild bookkeeping.
// It outlives the plan entries it protects (entries are swapped wholesale
// across rebuilds), so lifetime counters live here. Guarded by the
// registry mutex.
type breakerState struct {
	openUntil   time.Time // while in the future: acquires fast-fail
	rebuilding  bool      // a rebuild goroutine owns this key
	attempts    int       // consecutive failed rebuild attempts
	broken      bool      // attempt budget exhausted; half-open probing
	lastErr     error     // the failure that opened the breaker
	last        *planEntry
	quarantines int64 // lifetime: worlds declared failed
	rebuilds    int64 // lifetime: successful rebuilds
}

// gated reports whether acquires for this key must fast-fail now.
func (b *breakerState) gated(now time.Time) bool {
	return b.rebuilding || b.broken || now.Before(b.openUntil)
}

// Registry is a capacity-bounded LRU cache of live plans. A cached Mem
// plan keeps its world of rank goroutines alive between requests — that
// is the whole point (§6: tuning and planning amortize over repeated
// transforms) and also why capacity must be bounded: eviction Close()s
// the least-recently-used idle plan's world. Construction is
// singleflight: concurrent requests for the same key build one plan and
// share it; plans currently referenced by an in-flight request are never
// evicted.
//
// The registry is also the service's fault boundary: when an execution
// surfaces offt.ErrWorldFailed, MarkFailed quarantines the entry (new
// acquires fast-fail with a typed QuarantinedError while in-flight
// references drain), tears the dead world down, and rebuilds it in the
// background with capped exponential backoff. A key whose rebuilds keep
// failing goes broken and is probed half-open after a full breaker
// window, so a transient environment failure never wedges a key forever
// and a permanent one never burns a rebuild loop.
type Registry struct {
	mu      sync.Mutex
	cap     int
	entries map[PlanKey]*planEntry
	lru     *list.List // front = most recently used
	closed  bool

	policy    RebuildPolicy
	breakers  map[PlanKey]*breakerState
	stopc     chan struct{}  // closed by CloseAll: aborts rebuild backoff sleeps
	rebuildWG sync.WaitGroup // live rebuild goroutines

	hits         *telemetry.Counter
	misses       *telemetry.Counter
	evictions    *telemetry.Counter
	buildNs      *telemetry.Histogram
	quarantines  *telemetry.Counter
	rebuilds     *telemetry.Counter
	rebuildFails *telemetry.Counter
	breakerFails *telemetry.Counter

	// log receives the plan-lifecycle events (built, quarantined, rebuild
	// failed/succeeded, broken, half-open probe, evicted). A nil logger is
	// the disabled logger; set before serving via SetLogger.
	log *telemetry.Logger
}

// NewRegistry builds a registry holding at most capacity live plans. reg
// may be nil (metrics disabled). The default RebuildPolicy applies until
// SetRebuildPolicy.
func NewRegistry(capacity int, reg *telemetry.Registry) *Registry {
	if capacity < 1 {
		capacity = 1
	}
	r := &Registry{
		cap:          capacity,
		entries:      make(map[PlanKey]*planEntry),
		lru:          list.New(),
		breakers:     make(map[PlanKey]*breakerState),
		stopc:        make(chan struct{}),
		hits:         reg.Counter("serve.plan_cache.hits"),
		misses:       reg.Counter("serve.plan_cache.misses"),
		evictions:    reg.Counter("serve.plan_cache.evictions"),
		buildNs:      reg.Histogram("serve.plan_cache.build.ns"),
		quarantines:  reg.Counter("serve.plan.quarantines"),
		rebuilds:     reg.Counter("serve.plan.rebuilds"),
		rebuildFails: reg.Counter("serve.plan.rebuild_failures"),
		breakerFails: reg.Counter("serve.plan.breaker_fast_fails"),
	}
	r.policy.fill()
	reg.Func("serve.plan_cache.size", func() int64 { return int64(r.Len()) })
	reg.Func("serve.plan_cache.quarantined", func() int64 {
		return int64(r.HealthSnapshot().Quarantined)
	})
	// Per-state plan-health gauges for Prometheus: the same states /healthz
	// reports as JSON, scrapeable so dashboards and the chaos soak can
	// watch the healthy/quarantined/rebuilding/broken mix over time.
	reg.Func("serve.plan.health.healthy", func() int64 { return int64(r.Len()) })
	reg.Func("serve.plan.health.quarantined", func() int64 {
		h := r.HealthSnapshot()
		return int64(h.Quarantined - h.Rebuilding - h.Broken)
	})
	reg.Func("serve.plan.health.rebuilding", func() int64 {
		return int64(r.HealthSnapshot().Rebuilding)
	})
	reg.Func("serve.plan.health.broken", func() int64 {
		return int64(r.HealthSnapshot().Broken)
	})
	return r
}

// SetLogger attaches the structured logger the registry announces plan
// lifecycle transitions on (nil = logging off). Call before serving.
func (r *Registry) SetLogger(log *telemetry.Logger) {
	r.mu.Lock()
	r.log = log
	r.mu.Unlock()
}

// logger returns the attached logger (nil-safe to call methods on).
func (r *Registry) logger() *telemetry.Logger {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.log
}

// SetRebuildPolicy replaces the quarantine-and-rebuild bounds (zero
// fields take defaults). Call before serving.
func (r *Registry) SetRebuildPolicy(p RebuildPolicy) {
	p.fill()
	r.mu.Lock()
	r.policy = p
	r.mu.Unlock()
}

// Acquire returns the cached plan for key, building it with build on a
// miss. The caller holds a reference until Release: a referenced plan is
// guaranteed not to be evicted/closed. On build failure the entry is
// removed so a later request retries. A hit whose plan is still being
// built by another request waits for the build only as long as ctx
// allows; on expiry the reference is dropped and ctx's error returned.
// While the key's circuit breaker is open (world failed, rebuild in
// progress) Acquire fast-fails with a *QuarantinedError instead of
// touching the dead world. built reports that this call ran build (a
// miss), whatever build returned. The registry keeps build for background
// rebuilds of the key, long after this call: it must not write to the
// state of the request that passed it.
func (r *Registry) Acquire(ctx context.Context, key PlanKey, build func() (*offt.Plan, error)) (e *planEntry, built bool, err error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, false, ErrDraining
	}
	now := time.Now()
	if br, ok := r.breakers[key]; ok && br.gated(now) {
		if br.broken && !br.rebuilding && !now.Before(br.openUntil) {
			// Half-open: the broken window elapsed — re-arm one probe
			// rebuild on behalf of this caller, but still fail it fast
			// (the rebuild is asynchronous).
			br.broken = false
			br.attempts = 0
			br.rebuilding = true
			br.openUntil = now.Add(r.policy.BackoffBase)
			probe := &planEntry{key: key, ready: make(chan struct{}), build: build, health: HealthRebuilding}
			r.rebuildWG.Add(1)
			r.log.Info("plan.halfopen_probe", "plan", key.String())
			go r.rebuild(probe, nil)
		}
		qerr := r.quarantineErrLocked(key, br, now)
		r.mu.Unlock()
		r.breakerFails.Inc()
		return nil, false, qerr
	}
	if e, ok := r.entries[key]; ok {
		e.refs++
		e.lastUsed = now
		r.lru.MoveToFront(e.elem)
		r.mu.Unlock()
		r.hits.Inc()
		select {
		case <-e.ready:
		case <-ctx.Done():
			// Don't hold admission weight past our own deadline while a
			// slow build completes for somebody else.
			r.Release(e)
			return nil, false, ctx.Err()
		}
		if e.err != nil {
			// Built by another request and failed; drop our reference.
			r.Release(e)
			return nil, false, e.err
		}
		return e, false, nil
	}

	e = &planEntry{key: key, ready: make(chan struct{}), build: build, refs: 1, lastUsed: now, created: now}
	e.elem = r.lru.PushFront(e)
	r.entries[key] = e
	r.mu.Unlock()
	r.misses.Inc()

	// If build panics, waiters blocked on e.ready must still wake up with
	// an error and the poisoned entry must leave the map — otherwise every
	// later request for this key blocks forever holding admission weight.
	// The panic itself propagates (net/http recovers per-request).
	completed := false
	defer func() {
		if completed {
			return
		}
		e.err = fmt.Errorf("plan build panicked for %s", key)
		close(e.ready)
		r.mu.Lock()
		r.removeLocked(e)
		r.mu.Unlock()
	}()

	// The cold build shows up in the requesting trace as its own span
	// under "acquire": plan construction (world spin-up, tuned-store
	// lookup) is the dominant cold-path cost and must be attributable.
	tc := telemetry.TraceFrom(ctx)
	span := tc.Begin("plan_build")
	start := time.Now()
	e.plan, e.err = build()
	completed = true
	buildNs := time.Since(start).Nanoseconds()
	tc.End(span)
	r.buildNs.Observe(buildNs)
	close(e.ready)

	if e.err != nil {
		r.mu.Lock()
		r.removeLocked(e)
		r.mu.Unlock()
		r.logger().Warn("plan.build_failed", "plan", key.String(), "build_ns", buildNs, "error", e.err)
		return nil, true, e.err
	}
	r.logger().Info("plan.built", "plan", key.String(), "build_ns", buildNs)
	r.evict()
	return e, true, nil
}

// quarantineErrLocked renders the breaker's current state as the typed
// fast-failure (r.mu held).
func (r *Registry) quarantineErrLocked(key PlanKey, br *breakerState, now time.Time) *QuarantinedError {
	retry := br.openUntil.Sub(now)
	if retry <= 0 {
		retry = r.policy.BackoffBase
	}
	cause := br.lastErr
	if cause == nil {
		cause = ErrPlanQuarantined
	}
	return &QuarantinedError{Key: key.String(), RetryAfter: retry, Broken: br.broken, Cause: cause}
}

// MarkFailed quarantines a plan whose world died: the entry leaves the
// acquire path immediately (in-flight references drain on their own),
// the key's circuit breaker opens, and a background goroutine tears the
// dead world down and rebuilds it with capped exponential backoff.
// Duplicate reports for the same entry (every in-flight request on a
// dead world observes the failure) collapse into one rebuild. Returns
// the typed QuarantinedError callers can answer their own request with.
func (r *Registry) MarkFailed(e *planEntry, cause error) *QuarantinedError {
	now := time.Now()
	r.mu.Lock()
	if r.closed {
		qe := &QuarantinedError{Key: e.key.String(), RetryAfter: time.Second, Cause: ErrDraining}
		r.mu.Unlock()
		return qe
	}
	br := r.breakers[e.key]
	if br == nil {
		br = &breakerState{}
		r.breakers[e.key] = br
	}
	if e.health != HealthHealthy {
		// Already quarantined by a concurrent failure report.
		qe := r.quarantineErrLocked(e.key, br, now)
		r.mu.Unlock()
		return qe
	}
	e.health = HealthQuarantined
	r.removeLocked(e)
	br.rebuilding = true
	br.broken = false
	br.lastErr = cause
	br.last = e
	br.quarantines++
	br.openUntil = now.Add(r.backoffLocked(br.attempts))
	qe := r.quarantineErrLocked(e.key, br, now)
	r.rebuildWG.Add(1)
	go r.rebuild(e, e.plan)
	r.mu.Unlock()
	r.quarantines.Inc()
	r.logger().Warn("plan.quarantined", "plan", e.key.String(),
		"retry_after_ns", qe.RetryAfter.Nanoseconds(), "error", cause)
	return qe
}

// backoffLocked returns the capped exponential rebuild delay for the
// given consecutive-failure count (r.mu held).
func (r *Registry) backoffLocked(attempts int) time.Duration {
	d := r.policy.BackoffBase
	for i := 0; i < attempts && d < r.policy.BackoffCap; i++ {
		d *= 2
	}
	if d > r.policy.BackoffCap {
		d = r.policy.BackoffCap
	}
	return d
}

// rebuild is the background quarantine worker for one key: tear down the
// dead world (old may be nil for a half-open probe), then retry the
// build under the breaker's backoff schedule until it succeeds, the
// attempt budget is exhausted (broken), or the registry closes.
func (r *Registry) rebuild(e *planEntry, old *offt.Plan) {
	defer r.rebuildWG.Done()
	if old != nil {
		// The world is already failed, so any transform still holding the
		// plan's execution lock resolves promptly; Close then drains it
		// and stops the rank goroutines and retransmit timers.
		_ = old.Close()
	}
	for {
		r.mu.Lock()
		br := r.breakers[e.key]
		if br == nil || r.closed {
			r.mu.Unlock()
			return
		}
		e.health = HealthRebuilding
		delay := r.backoffLocked(br.attempts)
		r.mu.Unlock()

		select {
		case <-time.After(delay):
		case <-r.stopc:
			return
		}

		plan, err := e.build()
		if err != nil {
			r.rebuildFails.Inc()
			r.mu.Lock()
			br.attempts++
			if br.attempts >= r.policy.MaxAttempts {
				br.broken = true
				br.rebuilding = false
				br.lastErr = fmt.Errorf("rebuild failed %d times, breaker broken: %w", br.attempts, err)
				br.openUntil = time.Now().Add(r.policy.BackoffCap)
				e.health = HealthBroken
				attempts := br.attempts
				r.mu.Unlock()
				r.logger().Error("plan.broken", "plan", e.key.String(), "attempts", attempts, "error", err)
				return
			}
			br.lastErr = fmt.Errorf("rebuild attempt %d failed: %w", br.attempts, err)
			br.openUntil = time.Now().Add(r.backoffLocked(br.attempts))
			attempt := br.attempts
			r.mu.Unlock()
			r.logger().Warn("plan.rebuild_failed", "plan", e.key.String(), "attempt", attempt, "error", err)
			continue
		}

		now := time.Now()
		fresh := &planEntry{
			key: e.key, ready: make(chan struct{}), plan: plan, build: e.build,
			lastUsed: now, created: now, health: HealthHealthy,
		}
		close(fresh.ready)
		r.mu.Lock()
		if r.closed || r.entries[e.key] != nil {
			// Raced a shutdown (or an unexpected fresh build); don't leak a
			// world nobody will ever close.
			r.mu.Unlock()
			_ = plan.Close()
			return
		}
		fresh.elem = r.lru.PushFront(fresh)
		r.entries[e.key] = fresh
		br.rebuilding = false
		br.broken = false
		br.attempts = 0
		br.openUntil = time.Time{}
		br.last = nil
		br.rebuilds++
		// e keeps its quarantined health: a request that still holds it
		// and reports the dead world later is a duplicate report, not a
		// new failure of the key's fresh plan.
		r.mu.Unlock()
		r.rebuilds.Inc()
		r.logger().Info("plan.rebuilt", "plan", e.key.String())
		r.evict()
		return
	}
}

// KillPlan administratively fails the live plan cached under the key
// whose String() form matches keyStr, as if its world had died in the
// field: the world is failed, the entry quarantined, and the rebuild
// cycle starts. It is the chaos tests' fault-injection hook. Returns
// false when no live entry matches.
func (r *Registry) KillPlan(keyStr string, cause error) bool {
	r.mu.Lock()
	var victim *planEntry
	for el := r.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*planEntry)
		if e.key.String() == keyStr {
			victim = e
			break
		}
	}
	r.mu.Unlock()
	if victim == nil {
		return false
	}
	select {
	case <-victim.ready:
	default:
		return false // still building; nothing to kill yet
	}
	if victim.plan == nil {
		return false
	}
	if cause == nil {
		cause = errors.New("serve: plan killed by chaos hook")
	}
	victim.plan.Fail(cause)
	r.MarkFailed(victim, &offt.WorldError{Rank: -1, Cause: cause})
	return true
}

// Release drops a reference taken by Acquire and triggers eviction if the
// cache is over capacity.
func (r *Registry) Release(e *planEntry) {
	r.mu.Lock()
	e.refs--
	e.lastUsed = time.Now()
	r.mu.Unlock()
	r.evict()
}

// removeLocked unlinks an entry from the map and LRU list. The map is
// only touched if it still holds this exact entry (CloseAll may have
// replaced it wholesale), and a nil elem means the entry has already
// been unlinked from the list.
func (r *Registry) removeLocked(e *planEntry) {
	if cur, ok := r.entries[e.key]; ok && cur == e {
		delete(r.entries, e.key)
	}
	if e.elem != nil {
		r.lru.Remove(e.elem)
		e.elem = nil
	}
}

// evict closes least-recently-used idle plans until the registry is
// within capacity. Referenced (in-flight) and still-building entries are
// skipped; Close happens outside the lock because shutting a world down
// synchronizes with its rank goroutines.
func (r *Registry) evict() {
	var victims []*planEntry
	r.mu.Lock()
	for r.lru.Len() > r.cap {
		var victim *planEntry
		for el := r.lru.Back(); el != nil; el = el.Prev() {
			e := el.Value.(*planEntry)
			if e.refs == 0 {
				select {
				case <-e.ready: // built: safe to close
					victim = e
				default: // still building (refs 0 can't happen mid-build, but stay safe)
				}
			}
			if victim != nil {
				break
			}
		}
		if victim == nil {
			break // everything is busy; stay over capacity until a Release
		}
		r.removeLocked(victim)
		victims = append(victims, victim)
	}
	r.mu.Unlock()
	for _, v := range victims {
		r.evictions.Inc()
		r.logger().Info("plan.evicted", "plan", v.key.String())
		_ = v.plan.Close()
	}
}

// PlanInfo is one row of the /v1/plans listing.
type PlanInfo struct {
	Key        string      `json:"key"`
	Grid       [3]int      `json:"grid"`
	Ranks      int         `json:"ranks"`
	Decomp     string      `json:"decomp"`
	ProcGrid   [2]int      `json:"proc_grid,omitempty"` // pencil Py×Pz
	Variant    string      `json:"variant"`
	Engine     string      `json:"engine"`
	Workers    int         `json:"workers"`
	Machine    string      `json:"machine,omitempty"`
	Comm       string      `json:"comm,omitempty"` // non-pairwise exchange schedule
	Params     offt.Params `json:"params"`
	Provenance string      `json:"params_source"`
	Execs      int64       `json:"execs"`
	InFlight   int         `json:"in_flight"`
	AgeMs      int64       `json:"age_ms"`
	IdleMs     int64       `json:"idle_ms"`
	Health     string      `json:"health"`
	Downgrades int64       `json:"downgrades"`
	Rebuilds   int64       `json:"rebuilds"`
	SteadyNs   int64       `json:"steady_ns,omitempty"`
}

// planInfoLocked renders one entry (r.mu held; e may be live or the
// detached last entry of an open breaker). Every identity field comes
// straight off the plan description that keys the entry.
func (r *Registry) planInfoLocked(e *planEntry, health PlanHealth, rebuilds int64, now time.Time) PlanInfo {
	info := PlanInfo{
		Key:        e.key.String(),
		Grid:       [3]int{e.key.Nx, e.key.Ny, e.key.Nz},
		Ranks:      e.key.Ranks,
		Decomp:     e.key.Decomp.String(),
		Variant:    e.key.Variant.String(),
		Engine:     e.key.Engine.String(),
		Workers:    e.key.Workers,
		Machine:    e.key.Machine,
		Params:     e.key.Params,
		Provenance: e.key.Provenance.String(),
		Execs:      e.execs.Load(),
		InFlight:   e.refs,
		AgeMs:      now.Sub(e.created).Milliseconds(),
		IdleMs:     now.Sub(e.lastUsed).Milliseconds(),
		Health:     health.String(),
		Rebuilds:   rebuilds,
		SteadyNs:   e.steadyNs.Load(),
	}
	if e.key.Decomp == offt.Pencil {
		info.ProcGrid = [2]int{e.key.ProcRows, e.key.ProcCols()}
	}
	if e.key.Params.Comm != offt.CommPairwise {
		info.Comm = e.key.Params.Comm.String()
	}
	// e.plan is written by the builder before ready closes; only read it
	// behind that happens-before edge.
	select {
	case <-e.ready:
		if e.plan != nil {
			info.Downgrades = e.plan.Downgrades()
		}
	default:
	}
	return info
}

// Snapshot lists the cached plans in most-recently-used order, followed
// by the keys currently under quarantine/rebuild (their last known entry
// is reported so operators see the degradation without scraping traces).
func (r *Registry) Snapshot() []PlanInfo {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]PlanInfo, 0, r.lru.Len())
	for el := r.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*planEntry)
		var rebuilds int64
		if br := r.breakers[e.key]; br != nil {
			rebuilds = br.rebuilds
		}
		out = append(out, r.planInfoLocked(e, e.health, rebuilds, now))
	}
	for key, br := range r.breakers {
		if !br.gated(now) || br.last == nil {
			continue
		}
		if _, live := r.entries[key]; live {
			continue
		}
		out = append(out, r.planInfoLocked(br.last, br.last.health, br.rebuilds, now))
	}
	return out
}

// RegistryHealth summarizes the registry's fault state for /healthz.
type RegistryHealth struct {
	Plans       int   `json:"plans"`
	Quarantined int   `json:"quarantined"` // keys currently gated (incl. rebuilding/broken)
	Rebuilding  int   `json:"rebuilding"`
	Broken      int   `json:"broken"`
	Quarantines int64 `json:"quarantines"` // lifetime world failures
	Rebuilds    int64 `json:"rebuilds"`    // lifetime successful rebuilds
	Downgrades  int64 `json:"downgrades"`  // overlapped→blocking fallbacks, all plans
}

// HealthSnapshot reports the registry's current fault state.
func (r *Registry) HealthSnapshot() RegistryHealth {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	h := RegistryHealth{Plans: r.lru.Len()}
	for el := r.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*planEntry)
		select {
		case <-e.ready:
			if e.plan != nil {
				h.Downgrades += e.plan.Downgrades()
			}
		default:
		}
	}
	for _, br := range r.breakers {
		h.Quarantines += br.quarantines
		h.Rebuilds += br.rebuilds
		if br.gated(now) {
			h.Quarantined++
			if br.rebuilding {
				h.Rebuilding++
			}
			if br.broken {
				h.Broken++
			}
			if br.last != nil && br.last.plan != nil {
				h.Downgrades += br.last.plan.Downgrades()
			}
		}
	}
	return h
}

// Wedged reports the keys that can neither serve nor recover: gated
// breakers with no live rebuild goroutine and no half-open horizon. A
// healthy registry always returns an empty slice — the chaos soak's
// first invariant.
func (r *Registry) Wedged() []string {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for key, br := range r.breakers {
		if br.gated(now) && !br.rebuilding && !br.broken {
			out = append(out, key.String())
		}
	}
	return out
}

// Len reports the number of cached plans.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lru.Len()
}

// CloseAll shuts the registry down: no further Acquires succeed, every
// in-flight rebuild is aborted and awaited, and every cached plan is
// closed. Callers must have drained in-flight work first (offt.Plan.Close
// itself waits out any transform still holding the plan's execution lock,
// so even a straggler is drained, not corrupted).
func (r *Registry) CloseAll() error {
	r.mu.Lock()
	var all []*planEntry
	if !r.closed {
		r.closed = true
		close(r.stopc)
		for el := r.lru.Front(); el != nil; el = el.Next() {
			e := el.Value.(*planEntry)
			// Detach before reinitializing the list: a concurrent failed build
			// calling removeLocked must not relink a stale element into the
			// fresh list and corrupt its length.
			e.elem = nil
			all = append(all, e)
		}
		r.lru.Init()
		r.entries = make(map[PlanKey]*planEntry)
	}
	r.mu.Unlock()

	// Rebuild goroutines observe closed/stopc and exit (closing any world
	// they had just built); waiting here makes "zero goroutine leaks after
	// drain" a property, not a race.
	r.rebuildWG.Wait()

	var firstErr error
	for _, e := range all {
		<-e.ready
		if e.err != nil {
			continue
		}
		if err := e.plan.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
