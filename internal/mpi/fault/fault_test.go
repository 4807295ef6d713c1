package fault

import (
	"bytes"
	"math"
	"testing"
)

func TestDecideDeterministic(t *testing.T) {
	p1, _ := NewPlan(42, ProfileMixed, 8)
	p2, _ := NewPlan(42, ProfileMixed, 8)
	for id := int64(0); id < 200; id++ {
		a := p1.Decide(1, 2, 3, id, 0)
		b := p2.Decide(1, 2, 3, id, 0)
		if a != b {
			t.Fatalf("id %d: same seed diverged: %+v vs %+v", id, a, b)
		}
	}
	p3, _ := NewPlan(43, ProfileMixed, 8)
	diff := 0
	for id := int64(0); id < 2000; id++ {
		if p1.Decide(1, 2, 3, id, 0) != p3.Decide(1, 2, 3, id, 0) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("different seeds produced identical decisions for 2000 messages")
	}
}

func TestDecideRatesApproximate(t *testing.T) {
	p := &Plan{Seed: 7, DropRate: 0.1}
	drops := 0
	const n = 20000
	for id := int64(0); id < n; id++ {
		if p.Decide(0, 1, 0, id, 0).Drop {
			drops++
		}
	}
	got := float64(drops) / n
	if got < 0.07 || got > 0.13 {
		t.Errorf("drop rate %g, want ≈0.1", got)
	}
}

func TestDecideAttemptIndependence(t *testing.T) {
	// A message dropped on attempt 0 must not be doomed on retransmit.
	p := &Plan{Seed: 1, DropRate: 0.5}
	recovered := 0
	for id := int64(0); id < 500; id++ {
		if !p.Decide(0, 1, 0, id, 0).Drop {
			continue
		}
		for a := 1; a < 64; a++ {
			if !p.Decide(0, 1, 0, id, a).Drop {
				recovered++
				break
			}
		}
	}
	if recovered == 0 {
		t.Error("no dropped message ever survived a retransmit attempt")
	}
}

func TestForceKnobs(t *testing.T) {
	p := &Plan{Seed: 3, ForceDropAttempts: 2, ForceCorruptAttempts: 1}
	for id := int64(0); id < 10; id++ {
		if !p.Decide(0, 1, 0, id, 0).Drop || !p.Decide(0, 1, 0, id, 1).Drop {
			t.Fatal("forced drop attempts not dropped")
		}
		if p.Decide(0, 1, 0, id, 2).Drop {
			t.Fatal("attempt past ForceDropAttempts dropped (rates are zero)")
		}
		if !p.Decide(0, 1, 0, id, 0).Corrupt {
			t.Fatal("forced corrupt attempt not corrupted")
		}
	}
}

func TestStallEnd(t *testing.T) {
	p := &Plan{Stalls: []RankStall{{Rank: 2, At: 100, Dur: 50}}}
	if got := p.StallEnd(2, 120); got != 150 {
		t.Errorf("mid-window StallEnd = %d, want 150", got)
	}
	if got := p.StallEnd(2, 150); got != 150 {
		t.Errorf("at-window-end StallEnd = %d, want 150 (unchanged)", got)
	}
	if got := p.StallEnd(1, 120); got != 120 {
		t.Errorf("other rank StallEnd = %d, want 120", got)
	}
	if got := p.StallEnd(2, 50); got != 50 {
		t.Errorf("before window StallEnd = %d, want 50", got)
	}
}

func TestLinkAndNICFactors(t *testing.T) {
	p := &Plan{
		SlowNIC: map[int]float64{1: 4},
		Links:   []LinkFault{{Src: -1, Dst: 3, From: 0, Until: 100, Factor: 2}},
	}
	if f := p.NICFactor(1); f != 4 {
		t.Errorf("NICFactor(1) = %g, want 4", f)
	}
	if f := p.NICFactor(0); f != 1 {
		t.Errorf("NICFactor(0) = %g, want 1", f)
	}
	if f := p.LinkFactor(0, 3, 50); f != 2 {
		t.Errorf("active LinkFactor = %g, want 2", f)
	}
	if f := p.LinkFactor(0, 3, 100); f != 1 {
		t.Errorf("expired LinkFactor = %g, want 1", f)
	}
	if f := p.LinkFactor(0, 2, 50); f != 1 {
		t.Errorf("other-dst LinkFactor = %g, want 1", f)
	}
}

func TestChecksumAndCorruption(t *testing.T) {
	data := []complex128{1 + 2i, -3.5 + 0.25i, 0}
	sum := Checksum(data)
	if sum != Checksum(data) {
		t.Fatal("checksum not deterministic")
	}
	bad := CorruptCopy(data, 99)
	if Checksum(bad) == sum {
		t.Fatal("corruption not detected by checksum")
	}
	// Original untouched.
	if data[0] != 1+2i || data[1] != -3.5+0.25i || data[2] != 0 {
		t.Fatal("CorruptCopy mutated its input")
	}
	for _, v := range bad {
		if math.IsNaN(real(v)) || math.IsInf(real(v), 0) {
			t.Fatal("corruption produced NaN/Inf (mantissa-only flips expected)")
		}
	}
	if n := CorruptCopy(nil, 1); len(n) != 0 {
		t.Fatal("empty payload should stay empty")
	}
}

func TestProfilesParseAndBuild(t *testing.T) {
	for _, prof := range Profiles() {
		got, err := ParseProfile(string(prof))
		if err != nil || got != prof {
			t.Errorf("ParseProfile(%q) = %v, %v", prof, got, err)
		}
		pl, err := NewPlan(5, prof, 8)
		if err != nil {
			t.Errorf("NewPlan(%q): %v", prof, err)
		}
		if prof != ProfileNone && !pl.Active() {
			t.Errorf("profile %q built an inactive plan", prof)
		}
		if prof == ProfileNone && pl.Active() {
			t.Error("none profile should be inactive")
		}
	}
	if _, err := ParseProfile("bogus"); err == nil {
		t.Error("expected error for unknown profile")
	}
	if _, err := NewPlan(1, ProfileStall, 0); err == nil {
		t.Error("expected error for p=0")
	}
	// Stall profile must target a rank inside [0, p).
	for seed := int64(0); seed < 20; seed++ {
		pl, _ := NewPlan(seed, ProfileStall, 3)
		if r := pl.Stalls[0].Rank; r < 0 || r >= 3 {
			t.Fatalf("seed %d: stall rank %d out of range", seed, r)
		}
	}
}

func TestNilPlanIsInert(t *testing.T) {
	var p *Plan
	if p.Active() {
		t.Error("nil plan active")
	}
	if d := p.Decide(0, 1, 0, 0, 0); d != (Decision{}) {
		t.Error("nil plan decided a fault")
	}
	if p.StallEnd(0, 9) != 9 || p.NICFactor(0) != 1 || p.LinkFactor(0, 1, 0) != 1 {
		t.Error("nil plan degraded something")
	}
}

// TestChecksumKnownAnswer runs the CRC-32C check vector through the byte
// path every payload's sum takes.
func TestChecksumKnownAnswer(t *testing.T) {
	if got := crc32c([]byte("123456789")); got != 0xE3069283 {
		t.Fatalf("CRC-32C(\"123456789\") = %#x, want 0xe3069283", got)
	}
}

// checksumPayload is a fixed payload with every kind of float in it.
func checksumPayload() []complex128 {
	return []complex128{
		1 + 2i, -3.5 + 0.25i, 0,
		complex(math.Copysign(0, -1), math.SmallestNonzeroFloat64),
		complex(math.Inf(1), math.NaN()),
		complex(math.Float64frombits(0x7ff8_0000_dead_beef), math.MaxFloat64),
	}
}

// TestChecksumPinned: a payload's sum is part of the frame format; a
// process built from another revision must agree on it.
func TestChecksumPinned(t *testing.T) {
	const want = 0xf4e04951 // a bitwise CRC-32C apart from hash/crc32 agrees
	if got := Checksum(checksumPayload()); got != want {
		t.Fatalf("Checksum = %#x, want %#x", got, want)
	}
}

// TestChecksumEveryBit: flipping any one of the 128 bits of an element
// changes the sum, for elements at the start, middle and end of a payload.
func TestChecksumEveryBit(t *testing.T) {
	data := make([]complex128, 257)
	for i := range data {
		data[i] = complex(float64(i)*0.37, -float64(i)*1.9)
	}
	sum := Checksum(data)
	for _, i := range []int{0, 1, 128, 255, 256} {
		orig := data[i]
		for bit := 0; bit < 128; bit++ {
			re, im := math.Float64bits(real(orig)), math.Float64bits(imag(orig))
			if bit < 64 {
				re ^= 1 << bit
			} else {
				im ^= 1 << (bit - 64)
			}
			data[i] = complex(math.Float64frombits(re), math.Float64frombits(im))
			if Checksum(data) == sum {
				t.Fatalf("element %d bit %d flipped: sum unchanged", i, bit)
			}
		}
		data[i] = orig
	}
}

// TestChecksumPortablePath: the per-element encoding a big-endian host
// takes gives, on this host, the bytes and sum of the memory view, and its
// store decodes a filled image bit for bit.
func TestChecksumPortablePath(t *testing.T) {
	data := checksumPayload()
	fast, _ := WireBytes(data)
	fastSum := Checksum(data)
	defer func(le bool) { littleEndian = le }(littleEndian)
	littleEndian = false
	portable, _ := WireBytes(data)
	if !bytes.Equal(portable, fast) {
		t.Fatalf("portable wire image\n %x\nwant\n %x", portable, fast)
	}
	if got := Checksum(data); got != fastSum {
		t.Fatalf("portable Checksum = %#x, want %#x", got, fastSum)
	}
	got := make([]complex128, len(data))
	wire, store := WireBytes(got)
	copy(wire, fast)
	store()
	for i := range data {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(data[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(data[i])) {
			t.Fatalf("element %d: stored %v, want the bits of %v", i, got[i], data[i])
		}
	}
}
