package envelope

import (
	"math/rand"
	"testing"

	"offt/internal/arena"
)

// TestDedupExactAndBounded replays a link's sequence numbers reordered
// within a bounded span and with random late duplicates — including ones
// far below the watermark — against a remember-everything reference, and
// checks the filter never holds more than that span.
func TestDedupExactAndBounded(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const n, window, span = 2000, 16, 64
		var d Dedup
		seen := map[int64]bool{}
		deliver := func(seq int64) {
			if got, want := d.Duplicate(seq), seen[seq]; got != want {
				t.Fatalf("seed %d: Duplicate(%d) = %v, want %v", seed, seq, got, want)
			}
			seen[seq] = true
			if len(d.ahead) > span {
				t.Fatalf("seed %d: %d sequence numbers held, undelivered span is %d", seed, len(d.ahead), span)
			}
		}
		pending := []int64{}
		next := int64(1)
		for next <= n || len(pending) > 0 {
			for next <= n && len(pending) < window {
				pending = append(pending, next)
				next++
			}
			// The oldest undelivered number goes next once the link has
			// run span ahead of it: a retransmission closing the gap.
			i := rng.Intn(len(pending))
			if next-pending[0] >= span {
				i = 0
			}
			deliver(pending[i])
			pending = append(pending[:i], pending[i+1:]...)
			if rng.Intn(4) == 0 && len(seen) > 0 {
				deliver(1 + rng.Int63n(next-1)) // a duplicate, possibly very late
			}
		}
		if d.low != n || len(d.ahead) != 0 {
			t.Fatalf("seed %d: after a gap-free run low=%d held=%d, want %d and 0", seed, d.low, len(d.ahead), n)
		}
	}
}

func TestMailboxFIFOPerKey(t *testing.T) {
	var b Mailbox
	if b.Has(0, 0) || b.Claim(0, 0) != nil {
		t.Fatal("empty mailbox reports a payload")
	}
	mk := func(v float64) *arena.Slab { return &arena.Slab{Data: []complex128{complex(v, 0)}} }
	b.Put(1, 7, mk(1))
	b.Put(2, 7, mk(2))
	b.Put(1, 7, mk(3)) // a second payload under one key (a duplicate the transport let through)
	b.Put(1, 7, mk(4))
	b.Put(1, 8, mk(5))
	for _, want := range []struct {
		src, tag int
		v        float64
	}{{1, 7, 1}, {1, 8, 5}, {1, 7, 3}, {2, 7, 2}, {1, 7, 4}} {
		if !b.Has(want.src, want.tag) {
			t.Fatalf("(%d,%d) not queued", want.src, want.tag)
		}
		got := b.Claim(want.src, want.tag)
		if got == nil || real(got.Data[0]) != want.v {
			t.Fatalf("Claim(%d,%d) = %v, want %v", want.src, want.tag, got, want.v)
		}
	}
	if b.Has(1, 7) || b.Claim(1, 7) != nil || len(b.m) != 0 {
		t.Fatal("mailbox not empty after claiming everything")
	}
}
