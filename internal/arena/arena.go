// Package arena is the repository's one size-classed buffer pool: the
// transports borrow message payloads and wire frames from it, serve its
// request and response scratch.
//
// Buffers travel as handles (*Buf), which are what the pool stores, so
// taking one back allocates nothing. Class c holds buffers of capacity
// 1<<c in a sync.Pool: what the arena retains is dropped within two
// collections and never counts as live heap. Get hands out the only
// reference; a holder may pass the handle on, and the last one calls
// Release once, after its final access to Data. A holder that cannot prove
// it is the last never releases and leaves the buffer to the collector.
//
// A sync.Pool keeps the first buffer put on a P in a slot no other P can
// reach, so a goroutine that has moved to another P since its last Release
// misses although the buffer is there. That costs a message payload a small
// allocation now and then; it would cost serve, whose handler changes P
// between requests, a fresh 4 MiB request buffer at random. Classes of
// 4 MiB and more therefore keep their free buffers in one list every P
// sees (see class).
package arena

import (
	"math/bits"
	"sync"
	"weak"
)

// Buf is a reusable buffer handle. Data is the caller's to read and write
// until Release. A handle built directly (&arena.Slab{Data: s}) owns
// memory the arena did not allocate; releasing it is a no-op.
type Buf[T any] struct {
	Data []T
	home *classes[T] // nil: not arena-owned
	free bool        // back in the arena (double-release guard)
}

// Slab is a complex128 buffer: a message payload, an FFT work slab.
type Slab = Buf[complex128]

// Bytes is a byte buffer: an encoded wire frame.
type Bytes = Buf[byte]

// classes holds one element type's buffers; classes from large on hold
// 4 MiB or more each.
type classes[T any] struct {
	class [48]class[T]
	large int
}

var (
	slabs  = classes[complex128]{large: 18}
	frames = classes[byte]{large: 22}
)

// class is the free buffers of one capacity. A small class keeps them in
// pool. A large class keeps them in free, as weak pointers, and only ever
// puts to pool, which then holds every released handle strongly until two
// collections have passed: the lifetime a small class's buffers have, with
// none of them out of a P's reach.
type class[T any] struct {
	pool sync.Pool
	mu   sync.Mutex
	free []weak.Pointer[Buf[T]]
}

func (k *class[T]) take(large bool) *Buf[T] {
	if !large {
		b, _ := k.pool.Get().(*Buf[T])
		return b
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	for i := len(k.free) - 1; i >= 0; i-- {
		b := k.free[i].Value() // nil: collected since its release
		k.free = k.free[:i]
		if b != nil {
			return b
		}
	}
	return nil
}

func (k *class[T]) put(b *Buf[T], large bool) {
	k.pool.Put(b)
	if large {
		k.mu.Lock()
		k.free = append(k.free, weak.Make(b))
		k.mu.Unlock()
	}
}

// Get returns a slab of length n with undefined contents.
func Get(n int) *Slab { return slabs.get(n) }

// GetBytes returns a byte buffer of length n with undefined contents.
func GetBytes(n int) *Bytes { return frames.get(n) }

func (cs *classes[T]) get(n int) *Buf[T] {
	if n <= 0 {
		return &Buf[T]{Data: []T{}}
	}
	c := bits.Len(uint(n - 1))
	if b := cs.class[c].take(c >= cs.large); b != nil {
		b.Data, b.free = b.Data[:n], false
		return b
	}
	return &Buf[T]{Data: make([]T, n, 1<<c), home: cs}
}

// Release returns the buffer to the arena; the caller must not touch the
// handle or its Data afterwards. A nil handle or one the arena does not own
// is a no-op; a second Release panics (it would give one buffer two owners).
func (b *Buf[T]) Release() {
	if b == nil || b.home == nil {
		return
	}
	if b.free {
		panic("arena: buffer released twice")
	}
	b.free = true
	b.Data = b.Data[:cap(b.Data)]
	c := bits.Len(uint(cap(b.Data))) - 1
	b.home.class[c].put(b, c >= b.home.large)
}
