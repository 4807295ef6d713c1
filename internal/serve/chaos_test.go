package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"offt"
	"offt/internal/telemetry"
)

// fastRebuild is the test-speed quarantine policy.
func fastRebuild() RebuildPolicy {
	return RebuildPolicy{
		BackoffBase: 10 * time.Millisecond,
		BackoffCap:  80 * time.Millisecond,
		MaxAttempts: 3,
	}
}

// settleGoroutines polls until the goroutine count drops to target or
// patience expires, returning the final count.
func settleGoroutines(target int, patience time.Duration) int {
	deadline := time.Now().Add(patience)
	for {
		n := runtime.NumGoroutine()
		if n <= target || time.Now().After(deadline) {
			return n
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestTransformsSurviveWorldKill is the serve-layer chaos regression, one
// row per fault profile: a fixed burst of concurrent transforms against a
// server whose plans run under the profile must ALL resolve — 200, a 429
// shed, or a typed 503/504 — never a hang or an untyped status; at least
// one must succeed; the registry must never wedge; and the episode must
// not leak goroutines. The none row also kills the world twice mid-burst
// and requires the killed plan to return to healthy service via the
// automatic rebuild. The mixed row drains the server mid-burst: Drain must
// return nil, and only once no admitted transform is left running. Run
// under -race this also exercises the quarantine state machine's locking.
func TestTransformsSurviveWorldKill(t *testing.T) {
	for _, profile := range []string{"none", "drop", "corrupt", "stall", "mixed"} {
		t.Run(profile, func(t *testing.T) { surviveBurst(t, profile) })
	}
}

func surviveBurst(t *testing.T, profile string) {
	baseGoroutines := runtime.NumGoroutine()

	s := New(Config{
		MaxInFlightRanks: 64,
		Telemetry:        telemetry.NewRegistry(),
		FaultProfile:     profile,
		Watchdog:         300 * time.Millisecond,
		ExecWatchdogMin:  200 * time.Millisecond,
		Rebuild:          fastRebuild(),
	})
	ts := httptest.NewServer(s.Handler())

	const n = 16
	data := randField(n*n*n, 99)
	req := TransformRequest{Nx: n, Ny: n, Nz: n, Ranks: 2, TimeoutMs: 5000}

	// Warm the plan so the kill hits a live, cached world.
	if code, _, _, emsg := postTransform(t, ts.URL, req, data); code != http.StatusOK {
		t.Fatalf("warmup: HTTP %d: %s", code, emsg)
	}
	snap := s.Registry().Snapshot()
	if len(snap) != 1 {
		t.Fatalf("expected one cached plan, got %d", len(snap))
	}
	keyStr := snap[0].Key

	// One request is admitted before the burst and held there with its
	// payload unsent, so a transform is in flight at a known point: the
	// none row kills the world under it, the mixed row drains around it.
	release, held := holdTransform(t, s, ts.URL, req, data)

	const workers = 8
	const perWorker = 6
	const burst = workers * perWorker
	var ok, typed, other atomic.Int64
	tally := func(code int) {
		switch code {
		case http.StatusOK:
			ok.Add(1)
		case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			typed.Add(1)
		default:
			other.Add(1)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				code, _, _, _ := postTransform(t, ts.URL, req, data)
				tally(code)
			}
		}()
	}
	killed := 0
	heldWant := 0
	switch profile {
	case "none":
		// Kill the world twice while the burst is in flight.
		for k := 0; k < 2; k++ {
			time.Sleep(15 * time.Millisecond)
			if s.Registry().KillPlan(keyStr, fmt.Errorf("chaos kill %d", k)) {
				killed++
			}
		}
		release()
		heldWant = http.StatusServiceUnavailable
	case "mixed":
		// Drain once the burst has a success. The held request gets its
		// payload only after Drain has begun, so Drain must wait for it.
		for ok.Load() == 0 {
			if ok.Load()+typed.Load()+other.Load() == burst {
				t.Fatal("the burst finished without a success before the drain")
			}
			time.Sleep(time.Millisecond)
		}
		time.AfterFunc(50*time.Millisecond, release)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := s.Drain(ctx)
		cancel()
		if err != nil {
			t.Errorf("drain mid-burst: %v", err)
		}
		if inUse := s.adm.InUse(); inUse != 0 {
			t.Errorf("Drain returned with %d rank-weights of admitted transforms still running", inUse)
		}
		heldWant = http.StatusOK
	default:
		release()
	}
	wg.Wait()
	heldCode := <-held
	tally(heldCode)
	t.Logf("%s: %d ok, %d shed or typed 5xx, %d other; held request HTTP %d",
		profile, ok.Load(), typed.Load(), other.Load(), heldCode)

	if got := ok.Load() + typed.Load() + other.Load(); got != burst+1 {
		t.Fatalf("answered %d of %d requests", got, burst+1)
	}
	if heldWant != 0 && heldCode != heldWant {
		t.Errorf("held request: HTTP %d, want %d", heldCode, heldWant)
	}
	if other.Load() > 0 {
		t.Errorf("%d requests resolved to an untyped status (want 200/429/503/504 only)", other.Load())
	}
	if ok.Load() == 0 {
		t.Error("no request of the burst succeeded")
	}
	if wedged := s.Registry().Wedged(); len(wedged) > 0 {
		t.Errorf("wedged registry keys after the burst: %v", wedged)
	}

	if profile == "none" {
		if killed == 0 {
			t.Fatal("no kill landed on the live plan; the chaos path was never exercised")
		}
		// The killed plan must come back on its own and serve again.
		deadline := time.Now().Add(5 * time.Second)
		recovered := false
		for time.Now().Before(deadline) {
			if code, _, _, _ := postTransform(t, ts.URL, req, data); code == http.StatusOK {
				recovered = true
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		if !recovered {
			t.Fatal("killed plan never returned to healthy service")
		}
		h := s.Registry().HealthSnapshot()
		if h.Quarantines < int64(killed) {
			t.Errorf("HealthSnapshot quarantines = %d, want ≥ %d", h.Quarantines, killed)
		}
		if h.Rebuilds < 1 {
			t.Errorf("HealthSnapshot rebuilds = %d, want ≥ 1", h.Rebuilds)
		}
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Errorf("drain: %v", err)
	}
	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	if got := settleGoroutines(baseGoroutines+4, 5*time.Second); got > baseGoroutines+4 {
		t.Errorf("goroutines settled at %d, baseline %d: leak", got, baseGoroutines)
	}
}

// holdTransform posts req with its payload withheld until release is
// called, and returns once the server has admitted it: the handler then
// waits in ReadPayloadInto holding admission weight and a plan reference.
// status receives the final HTTP status (0 on a transport error). Call it
// while no other transform is in flight.
func holdTransform(t *testing.T, s *Server, url string, req TransformRequest, data []complex128) (release func(), status <-chan int) {
	t.Helper()
	pr, pw := io.Pipe()
	st := make(chan int, 1)
	go func() {
		resp, err := http.Post(url+"/v1/transform", "application/octet-stream", pr)
		if err != nil {
			t.Errorf("held request: %v", err)
			st <- 0
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		st <- resp.StatusCode
	}()
	if err := WriteHeader(pw, req); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.adm.InUse() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the held request was never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	return func() { go func() { pw.CloseWithError(WritePayload(pw, data)) }() }, st
}

// TestQuarantineRebuildLifecycle walks the registry state machine
// directly: healthy → MarkFailed (typed fast-fail, breaker open) →
// background rebuild → healthy again, with the lifetime counters moving.
func TestQuarantineRebuildLifecycle(t *testing.T) {
	r := NewRegistry(2, nil)
	defer r.CloseAll()
	r.SetRebuildPolicy(fastRebuild())

	key := memKey(8, 2)
	e, _, err := r.Acquire(context.Background(), key, buildFor(key))
	if err != nil {
		t.Fatal(err)
	}
	r.Release(e)

	cause := &offt.WorldError{Rank: 1, Cause: errors.New("injected")}
	qe := r.MarkFailed(e, cause)
	if qe == nil || !errors.Is(qe, ErrPlanQuarantined) {
		t.Fatalf("MarkFailed returned %v, want a *QuarantinedError", qe)
	}
	if qe.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v, want positive", qe.RetryAfter)
	}

	// While the breaker is open the key fast-fails without building.
	if _, _, err := r.Acquire(context.Background(), key, func() (*offt.Plan, error) {
		t.Error("builder called while the breaker is open")
		return nil, errors.New("unexpected")
	}); !errors.Is(err, ErrPlanQuarantined) {
		t.Fatalf("Acquire during quarantine = %v, want ErrPlanQuarantined", err)
	}

	// Duplicate failure reports collapse (every in-flight request on the
	// dead world reports it).
	if qe2 := r.MarkFailed(e, cause); qe2 == nil {
		t.Fatal("duplicate MarkFailed returned nil")
	}

	// The background rebuild brings the key back.
	deadline := time.Now().Add(5 * time.Second)
	var fresh *planEntry
	for time.Now().Before(deadline) {
		fresh, _, err = r.Acquire(context.Background(), key, buildFor(key))
		if err == nil {
			break
		}
		if !errors.Is(err, ErrPlanQuarantined) {
			t.Fatalf("Acquire while rebuilding = %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatal("key never recovered from quarantine")
	}
	if fresh.Plan() == e.Plan() {
		t.Error("recovered entry still holds the dead plan")
	}
	r.Release(fresh)

	// A request that still held the dead entry reports its failure only
	// after the rebuild: the report is stale and the fresh plan serves on.
	r.MarkFailed(e, cause)
	if again, _, err := r.Acquire(context.Background(), key, buildFor(key)); err != nil {
		t.Fatalf("Acquire after a stale failure report = %v", err)
	} else {
		r.Release(again)
	}

	h := r.HealthSnapshot()
	if h.Quarantines != 1 || h.Rebuilds != 1 {
		t.Errorf("health = %+v, want 1 quarantine and 1 rebuild", h)
	}
	if wedged := r.Wedged(); len(wedged) > 0 {
		t.Errorf("wedged keys: %v", wedged)
	}
}

// TestBreakerBreaksThenHalfOpens: a key whose rebuilds keep failing goes
// broken (bounded work, fast 503s), and once the environment heals, the
// half-open probe after the breaker window restores service.
func TestBreakerBreaksThenHalfOpens(t *testing.T) {
	r := NewRegistry(2, nil)
	defer r.CloseAll()
	r.SetRebuildPolicy(RebuildPolicy{
		BackoffBase: 5 * time.Millisecond,
		BackoffCap:  40 * time.Millisecond,
		MaxAttempts: 2,
	})

	key := memKey(8, 1)
	var healthy atomic.Bool
	healthy.Store(true)
	build := func() (*offt.Plan, error) {
		if !healthy.Load() {
			return nil, errors.New("environment down")
		}
		return buildFor(key)()
	}

	e, _, err := r.Acquire(context.Background(), key, build)
	if err != nil {
		t.Fatal(err)
	}
	r.Release(e)

	healthy.Store(false)
	r.MarkFailed(e, errors.New("world died"))

	// Rebuilds fail MaxAttempts times → broken, reported as such.
	deadline := time.Now().Add(5 * time.Second)
	var qe *QuarantinedError
	for time.Now().Before(deadline) {
		_, _, err := r.Acquire(context.Background(), key, build)
		if err == nil {
			t.Fatal("Acquire succeeded while the environment is down")
		}
		if errors.As(err, &qe) && qe.Broken {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if qe == nil || !qe.Broken {
		t.Fatal("breaker never reported broken despite exhausted rebuilds")
	}

	// Environment heals: after the breaker window, an acquire arms the
	// half-open probe and the key recovers.
	healthy.Store(true)
	recovered := false
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if fresh, _, err := r.Acquire(context.Background(), key, build); err == nil {
			r.Release(fresh)
			recovered = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !recovered {
		t.Fatal("broken key never recovered after the environment healed")
	}
	if wedged := r.Wedged(); len(wedged) > 0 {
		t.Errorf("wedged keys: %v", wedged)
	}
}

// TestHalfOpenProbeOutlivesItsRequest drives a served key through
// quarantine, a broken breaker and the half-open probe: the request that
// arms the probe is answered 503 at once while the registry runs that
// request's plan builder on a goroutine of its own, and keeps it for every
// later rebuild. The builder must therefore be free of the request's
// state; under -race this test fails if it is not.
func TestHalfOpenProbeOutlivesItsRequest(t *testing.T) {
	s := New(Config{
		Telemetry: telemetry.NewRegistry(),
		Rebuild:   RebuildPolicy{BackoffBase: 5 * time.Millisecond, BackoffCap: 20 * time.Millisecond, MaxAttempts: 1},
	})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		if err := s.Drain(context.Background()); err != nil {
			t.Errorf("drain: %v", err)
		}
		ts.Close()
	}()

	const n = 8
	data := randField(n*n*n, 7)
	req := TransformRequest{Nx: n, Ny: n, Nz: n, Ranks: 1, TimeoutMs: 5000}
	if code, _, _, emsg := postTransform(t, ts.URL, req, data); code != http.StatusOK {
		t.Fatalf("warmup: HTTP %d: %s", code, emsg)
	}

	// The environment goes down with the world: the one rebuild the policy
	// allows fails, which breaks the breaker.
	r := s.Registry()
	r.mu.Lock()
	var e *planEntry
	for _, e = range r.entries {
	}
	e.build = func() (*offt.Plan, error) { return nil, errors.New("environment down") }
	r.mu.Unlock()
	r.MarkFailed(e, errors.New("world died"))

	// Requests keep coming. They are refused until one finds the breaker
	// window over and arms the probe with its own builder — the server's,
	// which works — and the probe's plan then serves as a cache hit.
	refused := 0
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, resp, _, emsg := postTransform(t, ts.URL, req, data)
		if code == http.StatusOK {
			if !resp.CacheHit {
				t.Error("the recovered plan was built by the probe, yet the request reports a cache miss")
			}
			break
		}
		if code != http.StatusServiceUnavailable {
			t.Fatalf("HTTP %d while the key is quarantined: %s", code, emsg)
		}
		refused++
		if time.Now().After(deadline) {
			t.Fatal("key never recovered through the half-open probe")
		}
		time.Sleep(time.Millisecond)
	}
	if refused == 0 {
		t.Error("no request was refused: the breaker never opened")
	}
}
