package envelope

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"
)

// FuzzEnvelopeRoundTrip throws arbitrary byte streams at the frame reader:
// truncated frames, corrupted checksums, bad kinds, hostile lengths,
// duplicated sequence numbers. The decoder must never panic or
// over-allocate past the size limit, must classify malformed input as an
// error, and every structurally valid decode must re-encode to the exact
// same bytes (canonical encoding) and decode again to an identical frame.
func FuzzEnvelopeRoundTrip(f *testing.F) {
	rng := rand.New(rand.NewSource(42))
	env := randomEnvelope(rng, 9)
	valid := AppendData(nil, env)
	f.Add(valid)

	// Duplicate sequence number: the same frame twice back to back.
	f.Add(append(append([]byte(nil), valid...), valid...))

	// Checksum corruption: one payload bit flipped under an intact header.
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)-3] ^= 0x40
	f.Add(corrupt)

	// Truncations at every interesting boundary.
	f.Add(valid[:3])                          // inside the length prefix
	f.Add(valid[:PrefixBytes])                // prefix only
	f.Add(valid[:PrefixBytes+1])              // kind only
	f.Add(valid[:len(valid)/2])               // mid-body
	f.Add(valid[:len(valid)-1])               // one byte short
	f.Add(AppendAck(nil, 7, 3))               // valid ack
	f.Add(AppendAck(nil, 7, 3)[:6])           // truncated ack
	f.Add([]byte{255, 255, 255, 255})         // hostile length prefix
	f.Add([]byte{5, 0, 0, 0, 99, 1, 2, 3, 4}) // unknown kind
	f.Add(AppendFin(nil))                     // graceful-departure marker
	f.Add([]byte{2, 0, 0, 0, 3, 0})           // fin with trailing garbage

	// Payloads only their bits can check, and an empty one.
	special := &Envelope{ID: 3, Seq: 1, Src: 1, Dst: 2, Tag: 4, Data: specialFloats()}
	special.Seal()
	f.Add(AppendData(nil, special))
	f.Add(AppendData(nil, &Envelope{ID: 4, Seq: 2, Src: 1, Dst: 2, Tag: 4}))

	const maxFrame = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		rd := bytes.NewReader(data)
		var scratch []byte
		for frames := 0; frames < 64; frames++ {
			fr, s, err := Read(rd, maxFrame, scratch)
			scratch = s
			if err != nil {
				if errors.Is(err, io.EOF) && rd.Len() != 0 {
					t.Fatalf("clean EOF with %d bytes unread", rd.Len())
				}
				break
			}
			switch fr.Kind {
			case KindData:
				reenc := AppendData(nil, &fr.Env)
				fr2, err2 := Decode(reenc[PrefixBytes:])
				if err2 != nil {
					t.Fatalf("re-encoded frame failed to decode: %v", err2)
				}
				if !sameEnvelopeBits(&fr.Env, &fr2.Env) {
					t.Fatalf("round trip changed envelope: %+v vs %+v", fr.Env, fr2.Env)
				}
			case KindAck:
				reenc := AppendAck(nil, fr.AckID, fr.AckFrom)
				fr2, err2 := Decode(reenc[PrefixBytes:])
				if err2 != nil || !reflect.DeepEqual(fr, fr2) {
					t.Fatalf("ack round trip: %+v vs %+v (%v)", fr, fr2, err2)
				}
			case KindFin:
				reenc := AppendFin(nil)
				fr2, err2 := Decode(reenc[PrefixBytes:])
				if err2 != nil || !reflect.DeepEqual(fr, fr2) {
					t.Fatalf("fin round trip: %+v vs %+v (%v)", fr, fr2, err2)
				}
			default:
				t.Fatalf("Read returned unknown kind %d without error", fr.Kind)
			}
		}
	})
}

// sameEnvelopeBits compares envelopes with bit-level float equality (NaN
// payloads from fuzzed bytes defeat ==).
func sameEnvelopeBits(a, b *Envelope) bool {
	if a.ID != b.ID || a.Seq != b.Seq || a.Src != b.Src || a.Dst != b.Dst || a.Tag != b.Tag || a.Sum != b.Sum || len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		ab := AppendData(nil, &Envelope{Data: a.Data[i : i+1]})
		bb := AppendData(nil, &Envelope{Data: b.Data[i : i+1]})
		if !bytes.Equal(ab, bb) {
			return false
		}
	}
	return true
}
