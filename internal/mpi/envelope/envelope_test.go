package envelope

import (
	"bytes"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func randomEnvelope(rng *rand.Rand, n int) *Envelope {
	e := &Envelope{
		ID:   rng.Int63(),
		Src:  rng.Intn(1024),
		Dst:  rng.Intn(1024),
		Tag:  rng.Intn(1 << 20),
		Data: make([]complex128, n),
	}
	for i := range e.Data {
		e.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	e.Seal()
	return e
}

func TestDataRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 3, 64, 1000} {
		e := randomEnvelope(rng, n)
		buf := AppendData(nil, e)
		f, _, err := Read(bytes.NewReader(buf), 1<<24, nil)
		if err != nil {
			t.Fatalf("n=%d: Read: %v", n, err)
		}
		if f.Kind != KindData {
			t.Fatalf("n=%d: kind %d", n, f.Kind)
		}
		if !reflect.DeepEqual(f.Env, *e) {
			t.Fatalf("n=%d: decoded %+v want %+v", n, f.Env, *e)
		}
		if !f.Env.Verify() {
			t.Fatalf("n=%d: checksum does not verify after round trip", n)
		}
	}
}

// specialFloats is a payload a float comparison cannot check: NaNs with
// distinct bit patterns, both zeros, subnormals and infinities.
func specialFloats() []complex128 {
	nan := func(bits uint64) float64 { return math.Float64frombits(0x7ff0_0000_0000_0000 | bits) }
	return []complex128{
		complex(math.Inf(1), math.Inf(-1)),
		complex(math.NaN(), 0),
		complex(nan(1), nan(0x8_0000_0000_0000)),
		complex(-nan(0xdead_beef), nan(0xf_ffff_ffff_ffff)),
		complex(math.Copysign(0, -1), math.SmallestNonzeroFloat64),
		complex(-math.SmallestNonzeroFloat64, math.Float64frombits(0x000f_ffff_ffff_ffff)),
	}
}

// TestDataRoundTripSpecialFloats: a payload crosses the codec bit for bit,
// whatever its floats are, and so does an empty one.
func TestDataRoundTripSpecialFloats(t *testing.T) {
	for _, data := range [][]complex128{specialFloats(), {}} {
		e := &Envelope{ID: 1, Src: 0, Dst: 1, Tag: 2, Data: data}
		e.Seal()
		f, err := Decode(AppendData(nil, e)[4:])
		if err != nil {
			t.Fatal(err)
		}
		if !sameEnvelopeBits(&f.Env, e) {
			t.Fatalf("decoded %v, want the bits of %v", f.Env.Data, e.Data)
		}
		if !f.Env.Verify() {
			t.Fatal("checksum must be computed over raw bits, surviving NaN/Inf payloads")
		}
	}
}

// TestChecksumIsWireCRC: the sum a frame carries is the CRC-32C of the
// payload bytes the frame carries.
func TestChecksumIsWireCRC(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, e := range []*Envelope{randomEnvelope(rng, 0), randomEnvelope(rng, 33), {Data: specialFloats()}} {
		frame := AppendData(nil, e)
		want := uint64(crc32.Checksum(frame[PrefixBytes+dataHeaderBytes:], crc32.MakeTable(crc32.Castagnoli)))
		if got := Checksum(e.Data); got != want {
			t.Fatalf("%d elements: Checksum = %#x, CRC-32C of the frame's payload = %#x", len(e.Data), got, want)
		}
	}
}

func TestAckRoundTrip(t *testing.T) {
	buf := AppendAck(nil, 123456789, 7)
	f, _, err := Read(bytes.NewReader(buf), 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != KindAck || f.AckID != 123456789 || f.AckFrom != 7 {
		t.Fatalf("decoded %+v", f)
	}
}

func TestStreamOfFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var buf []byte
	var want []*Envelope
	for i := 0; i < 20; i++ {
		if i%3 == 2 {
			buf = AppendAck(buf, int64(i), i)
			continue
		}
		e := randomEnvelope(rng, rng.Intn(32))
		want = append(want, e)
		buf = AppendData(buf, e)
	}
	rd := bytes.NewReader(buf)
	var scratch []byte
	var got []*Envelope
	for {
		f, s, err := Read(rd, 1<<20, scratch)
		scratch = s
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if f.Kind == KindData {
			e := f.Env
			got = append(got, &e)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d data frames, want %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(*got[i], *want[i]) {
			t.Fatalf("frame %d: %+v want %+v", i, *got[i], *want[i])
		}
	}
}

func TestCorruptionDetected(t *testing.T) {
	e := randomEnvelope(rand.New(rand.NewSource(3)), 16)
	buf := AppendData(nil, e)
	// Flip one bit in the payload region; the header checksum now disagrees.
	buf[len(buf)-5] ^= 0x10
	f, err := Decode(buf[4:])
	if err != nil {
		t.Fatalf("corrupted payload must still decode structurally: %v", err)
	}
	if f.Env.Verify() {
		t.Fatal("flipped payload bit must fail checksum verification")
	}
}

func TestTruncationErrors(t *testing.T) {
	e := randomEnvelope(rand.New(rand.NewSource(5)), 8)
	full := AppendData(nil, e)
	// Truncated mid-body at the reader level.
	for _, cut := range []int{1, 3, 4, 10, len(full) - 1} {
		_, _, err := Read(bytes.NewReader(full[:cut]), 1<<20, nil)
		if err == nil {
			t.Fatalf("cut=%d: want error", cut)
		}
		if errors.Is(err, io.EOF) && cut >= 1 && cut < len(full) && cut != 0 {
			// A cut inside the prefix or body must not look like a clean EOF,
			// except a cut of the whole prefix region boundary (cut < 4 is
			// inside the prefix → unexpected EOF).
			if cut >= 4 {
				t.Fatalf("cut=%d: clean EOF for truncated body", cut)
			}
		}
	}
	// Body shorter than its header claims at the Decode level.
	body := full[PrefixBytes:]
	if _, err := Decode(body[:len(body)-1]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("want ErrTruncated, got %v", err)
	}
	if _, err := Decode(nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("empty body: want ErrTruncated, got %v", err)
	}
	if _, err := Decode([]byte{99, 0, 0}); !errors.Is(err, ErrBadKind) {
		t.Fatalf("want ErrBadKind, got %v", err)
	}
}

func TestOversizeRejected(t *testing.T) {
	e := randomEnvelope(rand.New(rand.NewSource(9)), 64)
	buf := AppendData(nil, e)
	_, _, err := Read(bytes.NewReader(buf), 64, nil)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
}

func TestDuplicateSequenceNumbersDecodeIndependently(t *testing.T) {
	// The codec itself is oblivious to duplicates — both copies decode
	// intact; receiver-side dedup is the transport's job. This pins that a
	// retransmitted (same-id) frame is byte-identical on the wire.
	e := randomEnvelope(rand.New(rand.NewSource(13)), 12)
	a := AppendData(nil, e)
	b := AppendData(nil, e)
	if !bytes.Equal(a, b) {
		t.Fatal("same envelope must encode identically")
	}
	rd := bytes.NewReader(append(a, b...))
	f1, s, err1 := Read(rd, 1<<20, nil)
	f2, _, err2 := Read(rd, 1<<20, s)
	if err1 != nil || err2 != nil {
		t.Fatalf("errs: %v %v", err1, err2)
	}
	if f1.Env.ID != f2.Env.ID || !reflect.DeepEqual(f1.Env, f2.Env) {
		t.Fatal("duplicate frames must decode to identical envelopes")
	}
}
