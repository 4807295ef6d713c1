package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"offt"
)

func memKey(n, ranks int) PlanKey {
	prm, err := offt.DefaultParams(n, n, n, ranks)
	if err != nil {
		panic(err)
	}
	return PlanKey{
		Nx: n, Ny: n, Nz: n, Ranks: ranks,
		Variant: offt.NEW, Engine: offt.Mem, Workers: 1,
		Machine: "laptop", Params: prm,
	}
}

func buildFor(key PlanKey) func() (*offt.Plan, error) {
	return func() (*offt.Plan, error) {
		return offt.NewPlan(
			offt.WithGrid(key.Nx, key.Ny, key.Nz),
			offt.WithRanks(key.Ranks),
			offt.WithVariant(key.Variant),
			offt.WithParams(key.Params),
		)
	}
}

func TestRegistryHitMissEviction(t *testing.T) {
	r := NewRegistry(1, nil)
	defer r.CloseAll()

	kA, kB := memKey(8, 1), memKey(12, 1)

	a1, _, err := r.Acquire(context.Background(), kA, buildFor(kA))
	if err != nil {
		t.Fatal(err)
	}
	planA := a1.Plan()
	r.Release(a1)

	// Same key: cache hit, same plan instance.
	a2, _, err := r.Acquire(context.Background(), kA, func() (*offt.Plan, error) {
		t.Error("builder called on what should be a cache hit")
		return nil, errors.New("unexpected build")
	})
	if err != nil {
		t.Fatal(err)
	}
	if a2.Plan() != planA {
		t.Error("cache hit returned a different plan instance")
	}
	r.Release(a2)

	// Different key at capacity 1: A is idle, so it gets evicted and
	// closed.
	b, _, err := r.Acquire(context.Background(), kB, buildFor(kB))
	if err != nil {
		t.Fatal(err)
	}
	r.Release(b)
	if got := r.Len(); got != 1 {
		t.Errorf("registry holds %d plans, want 1", got)
	}
	if _, err := planA.Forward(make([]complex128, 8*8*8)); err == nil {
		t.Error("evicted plan was not closed")
	}

	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Grid != [3]int{12, 12, 12} {
		t.Errorf("snapshot = %+v, want one 12³ plan", snap)
	}
}

func TestRegistryDoesNotEvictBusyPlan(t *testing.T) {
	r := NewRegistry(1, nil)
	defer r.CloseAll()

	kA, kB := memKey(8, 1), memKey(12, 1)
	a, _, err := r.Acquire(context.Background(), kA, buildFor(kA))
	if err != nil {
		t.Fatal(err)
	}
	// A is still referenced: acquiring B overflows capacity but must not
	// close A underneath its holder.
	b, _, err := r.Acquire(context.Background(), kB, buildFor(kB))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Len(); got != 2 {
		t.Errorf("registry holds %d plans, want 2 (busy plan is unevictable)", got)
	}
	data := make([]complex128, 8*8*8)
	if _, err := a.Plan().Forward(data); err != nil {
		t.Errorf("busy plan was closed during overflow: %v", err)
	}
	r.Release(b)
	r.Release(a)
	// Now A is idle and over capacity: eviction shrinks back to 1.
	if got := r.Len(); got != 1 {
		t.Errorf("registry holds %d plans after releases, want 1", got)
	}
}

func TestRegistrySingleflight(t *testing.T) {
	r := NewRegistry(4, nil)
	defer r.CloseAll()

	key := memKey(8, 2)
	var builds atomic.Int32
	gate := make(chan struct{})

	const goros = 8
	var wg sync.WaitGroup
	plans := make([]*offt.Plan, goros)
	errs := make([]error, goros)
	for g := 0; g < goros; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-gate
			e, _, err := r.Acquire(context.Background(), key, func() (*offt.Plan, error) {
				builds.Add(1)
				return buildFor(key)()
			})
			if err != nil {
				errs[g] = err
				return
			}
			plans[g] = e.Plan()
			r.Release(e)
		}(g)
	}
	close(gate)
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("plan built %d times under concurrent acquire, want 1 (singleflight)", n)
	}
	for g := 1; g < goros; g++ {
		if plans[g] != plans[0] {
			t.Errorf("goroutine %d got a different plan instance", g)
		}
	}
}

func TestRegistryBuildErrorNotCached(t *testing.T) {
	r := NewRegistry(4, nil)
	defer r.CloseAll()

	key := memKey(8, 1)
	wantErr := fmt.Errorf("transient build failure")
	if _, _, err := r.Acquire(context.Background(), key, func() (*offt.Plan, error) { return nil, wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("Acquire = %v, want build error", err)
	}
	if got := r.Len(); got != 0 {
		t.Errorf("failed build left %d cached entries", got)
	}
	// The next acquire retries the build and can succeed.
	e, _, err := r.Acquire(context.Background(), key, buildFor(key))
	if err != nil {
		t.Fatalf("retry after failed build: %v", err)
	}
	r.Release(e)
}

// TestRegistryBuildPanicNotPoisoned: a panicking builder must not leave a
// permanently-unready entry behind — later acquires for the same key get
// to retry instead of blocking forever.
func TestRegistryBuildPanicNotPoisoned(t *testing.T) {
	r := NewRegistry(4, nil)
	defer r.CloseAll()

	key := memKey(8, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("build panic did not propagate")
			}
		}()
		_, _, _ = r.Acquire(context.Background(), key, func() (*offt.Plan, error) {
			panic("boom in plan construction")
		})
	}()
	if got := r.Len(); got != 0 {
		t.Fatalf("panicked build left %d cached entries", got)
	}
	// The key is not poisoned: a fresh acquire rebuilds and succeeds
	// (rather than blocking on a never-closed ready channel).
	done := make(chan error, 1)
	go func() {
		e, _, err := r.Acquire(context.Background(), key, buildFor(key))
		if err == nil {
			r.Release(e)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("acquire after panicked build: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("acquire after panicked build blocked")
	}
}

// TestRegistryAcquireHonorsContext: a waiter on another request's slow
// build gives up when its context expires instead of holding its
// reference (and admission weight) indefinitely.
func TestRegistryAcquireHonorsContext(t *testing.T) {
	r := NewRegistry(4, nil)
	defer r.CloseAll()

	key := memKey(8, 1)
	buildGate := make(chan struct{})
	building := make(chan struct{})
	builderDone := make(chan error, 1)
	go func() {
		e, _, err := r.Acquire(context.Background(), key, func() (*offt.Plan, error) {
			close(building)
			<-buildGate // hold the build until released below
			return buildFor(key)()
		})
		if err == nil {
			r.Release(e)
		}
		builderDone <- err
	}()
	<-building

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, _, err := r.Acquire(ctx, key, buildFor(key)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Acquire during slow build = %v, want context.DeadlineExceeded", err)
	}

	close(buildGate)
	if err := <-builderDone; err != nil {
		t.Fatalf("builder: %v", err)
	}
	// The abandoned waiter released its reference: the entry is idle and
	// evictable (refs back to 0).
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].InFlight != 0 {
		t.Errorf("snapshot = %+v, want one idle plan with no in-flight refs", snap)
	}
}

func TestRegistryExecAccounting(t *testing.T) {
	r := NewRegistry(2, nil)
	defer r.CloseAll()
	key := memKey(8, 1)
	e, _, err := r.Acquire(context.Background(), key, buildFor(key))
	if err != nil {
		t.Fatal(err)
	}
	e.RecordExec(int64(time.Millisecond))
	e.RecordExec(int64(3 * time.Millisecond))
	r.Release(e)
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Execs != 2 {
		t.Errorf("snapshot execs = %+v, want 2", snap)
	}
	// EWMA after [1ms, 3ms]: 1ms, then 1ms - 0.25ms + 0.75ms = 1.5ms.
	if got := snap[0].SteadyNs; got != int64(1500*time.Microsecond) {
		t.Errorf("steady EWMA = %v, want 1.5ms", time.Duration(got))
	}
}

func TestRegistryCloseAll(t *testing.T) {
	r := NewRegistry(4, nil)
	key := memKey(8, 1)
	e, _, err := r.Acquire(context.Background(), key, buildFor(key))
	if err != nil {
		t.Fatal(err)
	}
	plan := e.Plan()
	r.Release(e)
	if err := r.CloseAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Forward(make([]complex128, 8*8*8)); err == nil {
		t.Error("plan still live after CloseAll")
	}
	if _, _, err := r.Acquire(context.Background(), key, buildFor(key)); !errors.Is(err, ErrDraining) {
		t.Errorf("Acquire after CloseAll = %v, want ErrDraining", err)
	}
}
