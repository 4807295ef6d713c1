package envelope

import "offt/internal/arena"

// Dedup is the receiver-side duplicate filter of one src→dst link: exact
// (a sequence number is accepted once, however late its duplicates arrive)
// and bounded (only numbers delivered ahead of a gap are held, and the
// sender's retransmission closes the gap, so the set stays within the
// link's unacked window). The zero value is ready; callers serialise access.
type Dedup struct {
	low   int64              // every Seq <= low has been delivered
	ahead map[int64]struct{} // delivered Seqs above low+1
}

// Duplicate reports whether seq has been delivered before, and records it
// as delivered if not.
func (d *Dedup) Duplicate(seq int64) bool {
	if seq <= d.low {
		return true
	}
	if _, dup := d.ahead[seq]; dup {
		return true
	}
	if seq != d.low+1 {
		if d.ahead == nil {
			d.ahead = make(map[int64]struct{})
		}
		d.ahead[seq] = struct{}{}
		return false
	}
	d.low++
	for len(d.ahead) > 0 {
		if _, ok := d.ahead[d.low+1]; !ok {
			break
		}
		delete(d.ahead, d.low+1)
		d.low++
	}
	return false
}

// Mailbox holds one rank's delivered, unclaimed payloads by (source, tag),
// first in first out per key. A source sends one message per tag, so a key
// all but always holds one payload: it sits inline in the map and a deposit
// grows no slice. Callers serialise access.
type Mailbox struct {
	m map[boxKey]boxEntry
}

type boxKey struct{ src, tag int }

type boxEntry struct {
	head *arena.Slab
	rest []*arena.Slab
}

// Put queues a payload from (src, tag); the mailbox owns it until Claim.
func (b *Mailbox) Put(src, tag int, payload *arena.Slab) {
	if b.m == nil {
		b.m = make(map[boxKey]boxEntry)
	}
	k := boxKey{src, tag}
	e, ok := b.m[k]
	if ok {
		e.rest = append(e.rest, payload)
	} else {
		e.head = payload
	}
	b.m[k] = e
}

// Claim removes the oldest payload from (src, tag) for the caller, or nil.
func (b *Mailbox) Claim(src, tag int) *arena.Slab {
	k := boxKey{src, tag}
	e, ok := b.m[k]
	if !ok {
		return nil
	}
	if len(e.rest) == 0 {
		delete(b.m, k)
	} else {
		b.m[k] = boxEntry{head: e.rest[0], rest: e.rest[1:]}
	}
	return e.head
}

// Has reports whether a payload from (src, tag) is waiting.
func (b *Mailbox) Has(src, tag int) bool {
	_, ok := b.m[boxKey{src, tag}]
	return ok
}
