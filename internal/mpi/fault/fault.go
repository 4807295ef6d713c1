// Package fault provides deterministic, seedable fault plans for the
// in-process MPI engines. A Plan describes per-message faults (drop,
// duplicate, payload corruption, delay jitter) and per-rank faults (NIC
// stall windows, slow-NIC degradation) plus per-link degradation events.
// Both engines consume the same Plan: the mem engine applies it on wall
// time to real payloads, the simnet fabric applies the stall and link
// events in virtual time.
//
// Every per-message decision is a pure hash of (seed, src, dst, tag,
// message id, delivery attempt), so a plan replays identically regardless
// of goroutine scheduling — the property the chaos test suite relies on —
// and a retransmitted message rolls fresh faults on every attempt, so
// recovery converges whenever the fault rates are below 1.
//
// The package also defines what corruption is checked against: a payload's
// wire image (WireBytes), which the net frames and serve's bodies carry,
// and its Checksum.
package fault

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"unsafe"
)

// Profile names a canonical fault mix for NewPlan.
type Profile string

const (
	// ProfileNone injects nothing (a Plan that is all zeroes).
	ProfileNone Profile = "none"
	// ProfileDrop loses ~2% of message delivery attempts and adds delay
	// jitter; the transport must retransmit to converge.
	ProfileDrop Profile = "drop"
	// ProfileCorrupt flips payload bits on ~2% of deliveries (detected by
	// checksum, recovered by retransmit) plus light drops and duplicates.
	ProfileCorrupt Profile = "corrupt"
	// ProfileStall takes one seed-chosen rank's NIC offline for a stall
	// window at job start and degrades that rank's link afterwards — the
	// scenario that trips Wait deadlines and overlapped→blocking downgrades.
	ProfileStall Profile = "stall"
	// ProfileMixed combines light drops, corruption, duplication, jitter
	// and one short stall.
	ProfileMixed Profile = "mixed"
)

// Profiles lists the named profiles accepted by ParseProfile.
func Profiles() []Profile {
	return []Profile{ProfileNone, ProfileDrop, ProfileCorrupt, ProfileStall, ProfileMixed}
}

// ParseProfile validates a profile name (as given to -chaos-profile).
func ParseProfile(s string) (Profile, error) {
	for _, p := range Profiles() {
		if string(p) == s {
			return p, nil
		}
	}
	return "", fmt.Errorf("fault: unknown profile %q (want none, drop, corrupt, stall, mixed)", s)
}

// RankStall takes a rank's NIC offline for [At, At+Dur), in engine-clock
// nanoseconds (wall time since world start for mem, virtual time for sim).
// Messages the rank injects during the window are held until it closes.
type RankStall struct {
	Rank    int
	At, Dur int64
}

// LinkFault multiplies the per-byte transfer cost of the src→dst link by
// Factor during [From, Until). Src or Dst of -1 matches any rank.
type LinkFault struct {
	Src, Dst    int
	From, Until int64
	Factor      float64
}

// Plan is a deterministic fault schedule. The zero value injects nothing.
// Rates are per delivery attempt in [0, 1]; rates of 1 fault every attempt
// and therefore never let the transport converge — keep them below 1
// unless the Force* knobs are what you want.
type Plan struct {
	Seed int64

	// Per-message fault rates, rolled independently per delivery attempt.
	DropRate    float64
	DupRate     float64
	CorruptRate float64
	// JitterNs adds a uniform extra delivery delay in [0, JitterNs).
	JitterNs int64

	// ForceDropAttempts drops the first n delivery attempts of every
	// message; ForceCorruptAttempts corrupts them. Deterministic knobs for
	// tests that need "exactly one retransmit per message".
	ForceDropAttempts    int
	ForceCorruptAttempts int

	// Per-rank degradation. SlowNIC multiplies a rank's egress transfer
	// cost (≥ 1; the mem engine applies it to the emulated link delay, the
	// sim fabric to the per-byte rate).
	SlowNIC map[int]float64
	Stalls  []RankStall
	Links   []LinkFault
}

// Decision is the fault outcome for one delivery attempt of one message.
type Decision struct {
	Drop      bool
	Duplicate bool
	Corrupt   bool
	DelayNs   int64
}

// NewPlan builds a canonical plan for the given profile over p ranks.
// Magnitudes are sized for the repo's demo/test workloads (tens of ms,
// hundreds to thousands of messages).
func NewPlan(seed int64, profile Profile, p int) (*Plan, error) {
	if p < 1 {
		return nil, fmt.Errorf("fault: need at least one rank, got %d", p)
	}
	pl := &Plan{Seed: seed}
	const ms = int64(1e6)
	switch profile {
	case ProfileNone:
	case ProfileDrop:
		pl.DropRate = 0.02
		pl.JitterNs = 200_000
	case ProfileCorrupt:
		pl.CorruptRate = 0.02
		pl.DropRate = 0.005
		pl.DupRate = 0.02
		pl.JitterNs = 100_000
	case ProfileStall:
		r := int(mix64(uint64(seed)^0x5741) % uint64(p))
		pl.Stalls = []RankStall{{Rank: r, At: 0, Dur: 40 * ms}}
		pl.SlowNIC = map[int]float64{r: 4}
		pl.DropRate = 0.002
	case ProfileMixed:
		r := int(mix64(uint64(seed)^0x4d49) % uint64(p))
		pl.DropRate = 0.01
		pl.DupRate = 0.01
		pl.CorruptRate = 0.005
		pl.JitterNs = 100_000
		pl.Stalls = []RankStall{{Rank: r, At: 0, Dur: 10 * ms}}
	default:
		return nil, fmt.Errorf("fault: unknown profile %q", profile)
	}
	return pl, nil
}

// Decide rolls the per-message faults for one delivery attempt. It is a
// pure function of the plan and its arguments.
func (p *Plan) Decide(src, dst, tag int, id int64, attempt int) Decision {
	if p == nil {
		return Decision{}
	}
	d := Decision{
		Drop:    attempt < p.ForceDropAttempts || p.roll(1, src, dst, tag, id, attempt) < p.DropRate,
		Corrupt: attempt < p.ForceCorruptAttempts || p.roll(3, src, dst, tag, id, attempt) < p.CorruptRate,
	}
	d.Duplicate = p.roll(2, src, dst, tag, id, attempt) < p.DupRate
	if p.JitterNs > 0 {
		d.DelayNs = int64(p.roll(4, src, dst, tag, id, attempt) * float64(p.JitterNs))
	}
	return d
}

// StallEnd returns the end of the stall window covering rank at time now,
// or now when no stall is active. Engines hold a stalled rank's egress
// until the returned time.
func (p *Plan) StallEnd(rank int, now int64) int64 {
	if p == nil {
		return now
	}
	end := now
	for _, s := range p.Stalls {
		if s.Rank == rank && now >= s.At && now < s.At+s.Dur && s.At+s.Dur > end {
			end = s.At + s.Dur
		}
	}
	return end
}

// NICFactor returns the slow-NIC egress multiplier for rank (≥ 1).
func (p *Plan) NICFactor(rank int) float64 {
	if p == nil {
		return 1
	}
	if f, ok := p.SlowNIC[rank]; ok && f > 1 {
		return f
	}
	return 1
}

// LinkFactor returns the product of the active link-degradation factors
// for src→dst at time now (≥ 1 for pure degradation plans).
func (p *Plan) LinkFactor(src, dst int, now int64) float64 {
	if p == nil {
		return 1
	}
	f := 1.0
	for _, l := range p.Links {
		if (l.Src == -1 || l.Src == src) && (l.Dst == -1 || l.Dst == dst) &&
			now >= l.From && now < l.Until && l.Factor > 0 {
			f *= l.Factor
		}
	}
	return f
}

// Active reports whether the plan can inject anything at all (engines use
// this to keep the zero-overhead fast path when a plan is effectively
// empty).
func (p *Plan) Active() bool {
	if p == nil {
		return false
	}
	return p.DropRate > 0 || p.DupRate > 0 || p.CorruptRate > 0 || p.JitterNs > 0 ||
		p.ForceDropAttempts > 0 || p.ForceCorruptAttempts > 0 ||
		len(p.SlowNIC) > 0 || len(p.Stalls) > 0 || len(p.Links) > 0
}

// roll derives a uniform float64 in [0, 1) from the message identity and a
// per-fault-kind salt.
func (p *Plan) roll(kind uint64, src, dst, tag int, id int64, attempt int) float64 {
	h := uint64(p.Seed) ^ kind*0x9e3779b97f4a7c15
	h = mix64(h ^ uint64(src))
	h = mix64(h ^ uint64(dst)<<16)
	h = mix64(h ^ uint64(tag)<<32)
	h = mix64(h ^ uint64(id))
	h = mix64(h ^ uint64(attempt)<<48)
	return float64(h>>11) / (1 << 53)
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed bijection.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Checksum is the CRC-32C (Castagnoli) of a payload's wire bytes (see
// WireBytes), zero-extended: the integrity check both engines' transport
// seals and verifies every tracked envelope with. It detects every
// single-bit flip, which is what CorruptCopy injects.
func Checksum(data []complex128) uint64 {
	b, _ := WireBytes(data)
	return crc32c(b)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func crc32c(b []byte) uint64 { return uint64(crc32.Checksum(b, castagnoli)) }

// littleEndian reports whether a complex128's memory is its wire image.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// WireBytes returns data's wire image — each element as two little-endian
// IEEE-754 float64s, real then imaginary, 16 bytes in all — and a store
// that writes the image back into data. On a little-endian host the image
// is data's own memory: nothing is copied, bytes written into it are data,
// and store does nothing. Elsewhere the image is an encoded copy, and a
// caller that fills it must call store.
func WireBytes(data []complex128) (wire []byte, store func()) {
	if littleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(data))), 16*len(data)), func() {}
	}
	return encodeWire(data)
}

// encodeWire is WireBytes on a host whose memory is not the wire image: one
// element at a time, through encoding/binary.
func encodeWire(data []complex128) ([]byte, func()) {
	wire := make([]byte, 16*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint64(wire[16*i:], math.Float64bits(real(v)))
		binary.LittleEndian.PutUint64(wire[16*i+8:], math.Float64bits(imag(v)))
	}
	return wire, func() {
		for i := range data {
			data[i] = complex(
				math.Float64frombits(binary.LittleEndian.Uint64(wire[16*i:])),
				math.Float64frombits(binary.LittleEndian.Uint64(wire[16*i+8:])),
			)
		}
	}
}

// CorruptCopy returns a copy of data with one deterministic bit flipped
// (position derived from salt), simulating on-the-wire corruption that a
// checksum catches. Empty payloads are returned unchanged.
func CorruptCopy(data []complex128, salt uint64) []complex128 {
	out := append([]complex128(nil), data...)
	if len(out) == 0 {
		return out
	}
	h := mix64(salt)
	i := int(h % uint64(len(out)))
	bit := uint((h >> 32) % 52) // mantissa bits: guaranteed value change, no NaN
	re := math.Float64bits(real(out[i])) ^ (1 << bit)
	out[i] = complex(math.Float64frombits(re), imag(out[i]))
	return out
}
