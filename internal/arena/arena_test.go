package arena

import (
	"runtime"
	"testing"
)

func TestGetShapes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 15, 16, 17, 1000, 1 << 12, 1<<12 + 1} {
		b := Get(n)
		if len(b.Data) != n {
			t.Fatalf("Get(%d): len %d", n, len(b.Data))
		}
		if c := cap(b.Data); c&(c-1) != 0 || c < n || c >= 2*n && n > 1 {
			t.Fatalf("Get(%d): cap %d is not the next power of two", n, c)
		}
		b.Release()
		f := GetBytes(n)
		if len(f.Data) != n {
			t.Fatalf("GetBytes(%d): len %d", n, len(f.Data))
		}
		f.Release()
	}
	if b := Get(0); b == nil || len(b.Data) != 0 || b.Data == nil {
		t.Fatalf("Get(0) = %+v, want an empty non-nil slab", b)
	}
}

// TestReleaseReuses checks that a released buffer comes back for a request
// of the same class at its new length, whatever length it was released at.
func TestReleaseReuses(t *testing.T) {
	// sync.Pool may drop an item (and under the race detector does so at
	// random), so look for reuse over a few attempts.
	for try := 0; try < 100; try++ {
		b := Get(900)
		b.Data[0] = 42
		b.Data = b.Data[:10]
		b.Release()
		again := Get(600)
		reused := again == b
		if reused && (len(again.Data) != 600 || cap(again.Data) != 1024 || again.Data[0] != 42) {
			t.Fatalf("reused handle has len %d cap %d", len(again.Data), cap(again.Data))
		}
		again.Release()
		if reused {
			return
		}
	}
	t.Fatal("a released slab was never handed out again")
}

// TestLargeClassLifetime: a free buffer of a large class is handed out
// again after one collection and gone after two, as a small class's is.
func TestLargeClassLifetime(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	b := Get(1 << 18)
	for gcs := 0; gcs <= 2; gcs++ {
		b.Data[0] = 42
		b.Release()
		for i := 0; i < gcs; i++ {
			runtime.GC()
		}
		if b = Get(1 << 18); (b.Data[0] == 42) != (gcs < 2) {
			t.Fatalf("after %d collections: reused %t", gcs, b.Data[0] == 42)
		}
	}
}

func TestReleaseForeignAndNil(t *testing.T) {
	var none *Slab
	none.Release()
	own := &Slab{Data: make([]complex128, 8)}
	own.Release()
	own.Release() // not the arena's: nothing to hand out twice
	if len(own.Data) != 8 {
		t.Fatal("releasing a foreign handle changed it")
	}
	empty := Get(0)
	empty.Release()
	empty.Release()
}

func TestDoubleReleasePanics(t *testing.T) {
	b := Get(64)
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release of an arena-owned buffer did not panic")
		}
	}()
	b.Release()
}

// TestSteadyStateAllocatesNothing is the reason handles exist: taking a
// buffer back must not box a slice header.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	Get(5000).Release()
	GetBytes(5000).Release()
	if a := testing.AllocsPerRun(200, func() {
		Get(5000).Release()
		GetBytes(5000).Release()
	}); a != 0 {
		t.Errorf("Get+Release allocates %.2f objects per round trip, want 0", a)
	}
}
