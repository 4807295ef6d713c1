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
package arena

import (
	"math/bits"
	"sync"
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

type classes[T any] [48]sync.Pool

var (
	slabs  classes[complex128]
	frames classes[byte]
)

// Get returns a slab of length n with undefined contents.
func Get(n int) *Slab { return slabs.get(n) }

// GetBytes returns a byte buffer of length n with undefined contents.
func GetBytes(n int) *Bytes { return frames.get(n) }

func (cs *classes[T]) get(n int) *Buf[T] {
	if n <= 0 {
		return &Buf[T]{Data: []T{}}
	}
	c := bits.Len(uint(n - 1))
	if v := cs[c].Get(); v != nil {
		b := v.(*Buf[T])
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
	b.home[bits.Len(uint(cap(b.Data)))-1].Put(b)
}
