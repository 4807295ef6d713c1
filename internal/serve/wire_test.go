package serve

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestWireHeaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	req := TransformRequest{Nx: 64, Ny: 64, Nz: 32, Ranks: 4, Direction: "backward", Variant: "new", TimeoutMs: 250}
	if err := WriteHeader(&buf, req); err != nil {
		t.Fatal(err)
	}
	var got TransformRequest
	if err := ReadHeader(&buf, &got); err != nil {
		t.Fatal(err)
	}
	if got != req {
		t.Errorf("header round trip = %+v, want %+v", got, req)
	}
}

// TestWirePayloadRoundTrip: a payload crosses the wire as packed
// little-endian float64 pairs and comes back bit for bit whatever its
// floats are — NaNs with distinct bit patterns, both zeros, subnormals —
// and an empty payload is no bytes.
func TestWirePayloadRoundTrip(t *testing.T) {
	nan := func(bits uint64) float64 { return math.Float64frombits(0x7ff0_0000_0000_0000 | bits) }
	data := []complex128{
		complex(math.NaN(), nan(1)),
		complex(-nan(0xdead_beef), nan(0xf_ffff_ffff_ffff)),
		complex(math.Copysign(0, -1), math.SmallestNonzeroFloat64),
		complex(-math.SmallestNonzeroFloat64, math.Float64frombits(0x000f_ffff_ffff_ffff)),
	}
	rng := rand.New(rand.NewSource(5))
	for len(data) < 5000 {
		data = append(data, complex(rng.NormFloat64(), rng.NormFloat64()))
	}
	var buf bytes.Buffer
	if err := WritePayload(&buf, data); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != len(data)*16 {
		t.Fatalf("payload bytes = %d, want %d", buf.Len(), len(data)*16)
	}
	for i, v := range data {
		re := binary.LittleEndian.Uint64(buf.Bytes()[16*i:])
		im := binary.LittleEndian.Uint64(buf.Bytes()[16*i+8:])
		if re != math.Float64bits(real(v)) || im != math.Float64bits(imag(v)) {
			t.Fatalf("element %d on the wire as %#x, %#x; want the bits of %v", i, re, im, v)
		}
	}
	got := make([]complex128, len(data))
	if err := ReadPayloadInto(&buf, got); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(data[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(data[i])) {
			t.Fatalf("element %d = %v, want the bits of %v (payload must be bit-exact)", i, got[i], data[i])
		}
	}

	if err := WritePayload(&buf, nil); err != nil || buf.Len() != 0 {
		t.Fatalf("empty payload: %d bytes, %v", buf.Len(), err)
	}
	if err := ReadPayloadInto(bytes.NewReader(nil), nil); err != nil {
		t.Fatalf("empty payload: %v", err)
	}
}

func TestWireMalformed(t *testing.T) {
	// Oversized header length prefix.
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	var req TransformRequest
	if err := ReadHeader(&buf, &req); err == nil || !strings.Contains(err.Error(), "header length") {
		t.Errorf("oversized header length error = %v", err)
	}

	// Truncated payload.
	var pbuf bytes.Buffer
	if err := WritePayload(&pbuf, make([]complex128, 10)); err != nil {
		t.Fatal(err)
	}
	short := pbuf.Bytes()[:pbuf.Len()-8]
	if err := ReadPayloadInto(bytes.NewReader(short), make([]complex128, 10)); err == nil {
		t.Error("truncated payload decoded without error")
	}

	// Header that is not JSON.
	var hbuf bytes.Buffer
	hbuf.Write([]byte{0, 0, 0, 2})
	hbuf.WriteString("{[")
	if err := ReadHeader(&hbuf, &req); err == nil {
		t.Error("malformed JSON header decoded without error")
	}
}

// FuzzReadHeader feeds arbitrary request bodies to the header reader the
// transform handler runs on every request, which takes its length prefix
// off the socket: nothing may panic, and a header it accepts must marshal
// back within maxHeaderBytes.
func FuzzReadHeader(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteHeader(&valid, TransformRequest{Nx: 64, Ny: 64, Nz: 32, Ranks: 4, Direction: "backward", Variant: "new", TimeoutMs: 250}); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()-1])
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0, 0, 0, 2, '{', '['})
	f.Fuzz(func(t *testing.T, body []byte) {
		raw, err := ReadRawHeader(bytes.NewReader(body))
		if err != nil {
			return
		}
		var req TransformRequest
		if err := DecodeRawHeader(raw, &req); err != nil {
			return
		}
		if _, err := MarshalHeader(req); err != nil {
			t.Errorf("accepted header %q does not marshal back: %v", raw[4:], err)
		}
	})
}
