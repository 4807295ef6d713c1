// Package envelope is the message format of the reliable-delivery core
// (package mpi/transport) and the parts of it that are plain data
// structures: the sequence-numbered, checksummed Envelope, the
// length-prefixed binary frame codec the net engine puts on the wire, the
// receiver's per-link duplicate filter (Dedup) and per-rank Mailbox, the
// recovery Counters behind mpi.Health, and the retransmission Backoff. The
// protocol that uses them — who numbers, resends, verifies and
// acknowledges — is package transport's, once, for both engines.
//
// Wire framing (all integers little-endian):
//
//	uint32  body length L (bytes that follow the prefix)
//	byte    kind: 1 = data, 2 = ack
//
//	data body (kind 1):
//	  int64   envelope id (sender-unique sequence number)
//	  int64   link sequence number (contiguous from 1 per src→dst link)
//	  int32   src rank
//	  int32   dst rank
//	  int32   collective tag
//	  uint64  CRC-32C of the payload bytes, zero-extended (fault.Checksum)
//	  uint32  n, payload length in complex128 elements
//	  n × 16  payload: (real bits, imag bits) as uint64 pairs, which is a
//	          complex128's memory on a little-endian host (fault.WireBytes),
//	          so encoding and decoding it is one copy
//
//	ack body (kind 2):
//	  int64   acknowledged envelope id
//	  int32   acknowledging rank
//
//	fin body (kind 3): empty — the kind byte is the whole body
//
// Acks are deliberately tiny and carry no checksum: like the mem engine's
// function-call acks, they ride a reliable control plane (TCP) and are
// never fault-injected; only data payloads fault.
//
// A fin frame is the graceful-departure marker: a rank whose world
// completed its teardown barrier sends fin as its last frame before
// half-closing the connection, so the receiver can tell an orderly exit
// (EOF after fin — ignore) from a crashed peer (EOF without fin — fail
// the world).
package envelope

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"offt/internal/arena"
	"offt/internal/mpi/fault"
)

// Frame kinds.
const (
	KindData byte = 1
	KindAck  byte = 2
	KindFin  byte = 3
)

const (
	dataHeaderBytes = 1 + 8 + 8 + 4 + 4 + 4 + 8 + 4 // kind..n, excluding payload
	ackBodyBytes    = 1 + 8 + 4
	finBodyBytes    = 1
	PrefixBytes     = 4 // the length prefix ahead of every frame body
	elemBytes       = 16
)

// Codec errors. Read additionally passes through I/O errors from the
// underlying reader (io.EOF on a clean boundary, io.ErrUnexpectedEOF on a
// frame truncated mid-body).
var (
	ErrTooLarge  = errors.New("envelope: frame exceeds size limit")
	ErrTruncated = errors.New("envelope: truncated frame body")
	ErrBadKind   = errors.New("envelope: unknown frame kind")
	ErrBadHeader = errors.New("envelope: malformed frame header")
)

// Envelope is one sequence-numbered, checksummed message. ID names the message to the fault plan, the
// outstanding set and the ack; Seq counts one src→dst link's messages from
// 1 without gaps, which keeps the receiver's Dedup exact and bounded.
type Envelope struct {
	ID, Seq       int64
	Src, Dst, Tag int
	Sum           uint64
	Data          []complex128
}

// Checksum is the transport checksum: CRC-32C over the payload's wire
// bytes (fault.Checksum, which catches every single-bit flip the fault
// injector's corruption makes).
func Checksum(data []complex128) uint64 { return fault.Checksum(data) }

// Seal stamps the envelope's checksum from its current payload.
func (e *Envelope) Seal() { e.Sum = Checksum(e.Data) }

// Verify reports whether the payload still matches the sealed checksum.
func (e *Envelope) Verify() bool { return Checksum(e.Data) == e.Sum }

// Frame is one decoded wire frame: a data envelope or an acknowledgement.
type Frame struct {
	Kind    byte
	Env     Envelope    // valid when Kind == KindData
	Payload *arena.Slab // owns Env.Data; whoever consumes the frame releases it
	AckID   int64       // valid when Kind == KindAck
	AckFrom int         // valid when Kind == KindAck
}

// DataFrameLen is the encoded size, length prefix included, of a data
// frame carrying n payload elements.
func DataFrameLen(n int) int { return PrefixBytes + dataHeaderBytes + elemBytes*n }

// AppendData appends a complete data frame (length prefix included) for e
// to buf and returns the extended slice. The frame is sized once, up
// front: a nil buf is allocated exactly, a DataFrameLen one never grows.
func AppendData(buf []byte, e *Envelope) []byte {
	buf = slices.Grow(buf, DataFrameLen(len(e.Data)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(dataHeaderBytes+elemBytes*len(e.Data)))
	buf = append(buf, KindData)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.ID))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Seq))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(e.Src)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(e.Dst)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(e.Tag)))
	buf = binary.LittleEndian.AppendUint64(buf, e.Sum)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.Data)))
	wire, _ := fault.WireBytes(e.Data)
	return append(buf, wire...)
}

// AckFrameLen is the encoded size of an ack frame, length prefix included.
const AckFrameLen = PrefixBytes + ackBodyBytes

// AppendAck appends a complete ack frame (length prefix included) to buf
// and returns the extended slice.
func AppendAck(buf []byte, id int64, from int) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, ackBodyBytes)
	buf = append(buf, KindAck)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(id))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(from)))
	return buf
}

// AppendFin appends a complete fin (graceful departure) frame to buf and
// returns the extended slice.
func AppendFin(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, finBodyBytes)
	return append(buf, KindFin)
}

// Decode parses one frame body (the bytes after the length prefix). A data
// frame's payload is decoded into an arena slab (Frame.Payload) the caller
// owns — it never aliases body, so callers can reuse their read buffer for
// the next frame.
func Decode(body []byte) (Frame, error) {
	if len(body) < 1 {
		return Frame{}, ErrTruncated
	}
	switch body[0] {
	case KindFin:
		if len(body) != finBodyBytes {
			return Frame{}, ErrTruncated
		}
		return Frame{Kind: KindFin}, nil
	case KindAck:
		if len(body) != ackBodyBytes {
			return Frame{}, ErrTruncated
		}
		return Frame{
			Kind:    KindAck,
			AckID:   int64(binary.LittleEndian.Uint64(body[1:])),
			AckFrom: int(int32(binary.LittleEndian.Uint32(body[9:]))),
		}, nil
	case KindData:
		if len(body) < dataHeaderBytes {
			return Frame{}, ErrTruncated
		}
		e := Envelope{
			ID:  int64(binary.LittleEndian.Uint64(body[1:])),
			Seq: int64(binary.LittleEndian.Uint64(body[9:])),
			Src: int(int32(binary.LittleEndian.Uint32(body[17:]))),
			Dst: int(int32(binary.LittleEndian.Uint32(body[21:]))),
			Tag: int(int32(binary.LittleEndian.Uint32(body[25:]))),
			Sum: binary.LittleEndian.Uint64(body[29:]),
		}
		n := int(binary.LittleEndian.Uint32(body[37:]))
		if e.Src < 0 || e.Dst < 0 || e.Tag < 0 {
			return Frame{}, fmt.Errorf("%w: negative rank or tag", ErrBadHeader)
		}
		if n < 0 || len(body) != dataHeaderBytes+elemBytes*n {
			return Frame{}, ErrTruncated
		}
		payload := arena.Get(n)
		e.Data = payload.Data
		wire, store := fault.WireBytes(e.Data)
		copy(wire, body[dataHeaderBytes:])
		store()
		return Frame{Kind: KindData, Env: e, Payload: payload}, nil
	default:
		return Frame{}, fmt.Errorf("%w: %d", ErrBadKind, body[0])
	}
}

// Read reads and decodes one frame from r. max bounds the accepted body
// length (guarding a malformed or hostile peer from forcing a huge
// allocation); scratch is an optional reusable buffer returned — possibly
// grown — for the next call. A clean EOF at a frame boundary is io.EOF;
// truncation inside a frame is io.ErrUnexpectedEOF.
func Read(r io.Reader, max int, scratch []byte) (Frame, []byte, error) {
	// The prefix is read into scratch too: a local array would escape
	// through the io.Reader call and cost an allocation per frame.
	if cap(scratch) < PrefixBytes {
		scratch = make([]byte, 64)
	}
	prefix := scratch[:PrefixBytes]
	if _, err := io.ReadFull(r, prefix); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, scratch, err
	}
	body := int(binary.LittleEndian.Uint32(prefix))
	if body > max {
		return Frame{}, scratch, fmt.Errorf("%w: %d > %d", ErrTooLarge, body, max)
	}
	if cap(scratch) < body {
		scratch = make([]byte, body)
	}
	buf := scratch[:body]
	if _, err := io.ReadFull(r, buf); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, scratch, err
	}
	f, err := Decode(buf)
	return f, scratch, err
}
