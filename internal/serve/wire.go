package serve

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"offt"
	"offt/internal/mpi/fault"
)

// Wire format of /v1/transform (request and response bodies share it):
//
//	[4-byte big-endian header length n]
//	[n bytes of JSON header]
//	[payload: count × 16 bytes, each complex128 as two little-endian
//	 IEEE-754 float64s (real, imag)]
//
// The JSON header carries the small control-plane fields; the payload is
// raw complex data with no base64 or per-element framing. On a
// little-endian host it is the slab's own memory (fault.WireBytes), so the
// server reads the socket straight into the slab the ranks read and writes
// the reply straight from the slab they wrote: one ReadFull, one Write.
// The payload element count is implied by the header (the grid volume
// for Mem-engine transforms, zero for Sim), never self-described — a
// malformed header cannot cause an oversized read beyond the configured
// element cap.

// maxHeaderBytes bounds the JSON header so a bad length prefix cannot
// force a large allocation.
const maxHeaderBytes = 1 << 20

// TransformRequest is the /v1/transform request header.
type TransformRequest struct {
	// Grid dimensions (required) and rank count (default 1).
	Nx    int `json:"nx"`
	Ny    int `json:"ny"`
	Nz    int `json:"nz"`
	Ranks int `json:"ranks"`
	// Direction is "forward" (default) or "backward".
	Direction string `json:"direction,omitempty"`
	// Decomp selects the domain decomposition: "slab" (default; "" and
	// "1d" alias it) or "pencil" ("2d"), which scales past the slab
	// decomposition's ranks ≤ min(Nx, Ny) cap.
	Decomp string `json:"decomp,omitempty"`
	// Variant is the algorithm variant name (default "new").
	Variant string `json:"variant,omitempty"`
	// Comm pins the all-to-all exchange schedule ("pairwise", "bruck",
	// "hier", "windowed"); omitted means the resolved parameters decide
	// (pairwise unless a tuned entry recorded a different winner).
	Comm string `json:"comm,omitempty"`
	// Engine is "mem" (default, transforms the payload) or "sim"
	// (virtual-time execution, no payload).
	Engine string `json:"engine,omitempty"`
	// Workers fans intra-rank kernels (default 1). Mem engine only.
	Workers int `json:"workers,omitempty"`
	// Machine names the machine model: the Sim engine's cost model and
	// the tuned-store warm-start key (default "laptop").
	Machine string `json:"machine,omitempty"`
	// Params overrides the plan parameters; when omitted the server
	// consults its tuned store, then the default point.
	Params *offt.Params `json:"params,omitempty"`
	// TimeoutMs caps the request's admission wait (default: server
	// config; the cap is also clamped by it).
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// TransformResponse is the /v1/transform response header; a Mem-engine
// response is followed by the result payload.
type TransformResponse struct {
	Status  string `json:"status"`
	PlanKey string `json:"plan_key"`
	// RequestID echoes the request's observability ID; feed it to
	// GET /debug/requests/{id} to pull the captured span tree.
	RequestID string `json:"request_id,omitempty"`
	// Decomp echoes the plan's resolved decomposition ("pencil" only;
	// omitted for slab so pre-pencil clients see unchanged headers).
	Decomp string `json:"decomp,omitempty"`
	// Comm echoes the plan's resolved exchange schedule (non-pairwise
	// only; omitted for the default so pre-schedule clients see
	// unchanged headers).
	Comm      string `json:"comm,omitempty"`
	CacheHit  bool   `json:"cache_hit"`
	Execs     int64  `json:"plan_execs"`
	ExecNs    int64  `json:"exec_ns"`
	QueueNs   int64  `json:"queue_ns"`
	Elements  int    `json:"elements"`
	VirtualNs int64  `json:"virtual_ns,omitempty"` // Sim engine
	TunedNs   int64  `json:"tuned_ns,omitempty"`   // Sim engine
	// Downgrades is the plan's cumulative overlapped→blocking fallback
	// count: nonzero means the transform succeeded degraded.
	Downgrades int64 `json:"downgrades,omitempty"`
	// OverlapEfficiency is this execution's overlappable/(overlappable +
	// visible-comm) ratio from the per-phase breakdown (0 when the plan
	// variant records no breakdown).
	OverlapEfficiency float64 `json:"overlap_efficiency,omitempty"`
}

// ErrorResponse is the JSON body of every non-200 response.
type ErrorResponse struct {
	Status string `json:"status"` // "error"
	Error  string `json:"error"`
}

// MarshalHeader renders hdr as the length-prefixed JSON header block, so
// callers that need the exact byte count up front (e.g. to set an HTTP
// Content-Length and avoid chunked transfer framing) can have it.
func MarshalHeader(hdr any) ([]byte, error) {
	b, err := json.Marshal(hdr)
	if err != nil {
		return nil, err
	}
	if len(b) > maxHeaderBytes {
		return nil, fmt.Errorf("serve: header of %d bytes exceeds the %d-byte cap", len(b), maxHeaderBytes)
	}
	out := make([]byte, 4+len(b))
	binary.BigEndian.PutUint32(out[:4], uint32(len(b)))
	copy(out[4:], b)
	return out, nil
}

// WriteHeader writes the length-prefixed JSON header.
func WriteHeader(w io.Writer, hdr any) error {
	b, err := MarshalHeader(hdr)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// ReadRawHeader reads a length-prefixed header block and returns it raw,
// 4-byte prefix included, so a router can decode it AND replay the exact
// bytes when forwarding the request to another replica.
func ReadRawHeader(r io.Reader) ([]byte, error) {
	var lenbuf [4]byte
	if _, err := io.ReadFull(r, lenbuf[:]); err != nil {
		return nil, fmt.Errorf("serve: reading header length: %w", err)
	}
	n := binary.BigEndian.Uint32(lenbuf[:])
	if n == 0 || n > maxHeaderBytes {
		return nil, fmt.Errorf("serve: header length %d outside (0, %d]", n, maxHeaderBytes)
	}
	raw := make([]byte, 4+n)
	copy(raw, lenbuf[:])
	if _, err := io.ReadFull(r, raw[4:]); err != nil {
		return nil, fmt.Errorf("serve: reading %d-byte header: %w", n, err)
	}
	return raw, nil
}

// DecodeRawHeader decodes a block returned by ReadRawHeader into dst.
func DecodeRawHeader(raw []byte, dst any) error {
	if err := json.Unmarshal(raw[4:], dst); err != nil {
		return fmt.Errorf("serve: decoding header: %w", err)
	}
	return nil
}

// ReadHeader reads a length-prefixed JSON header into dst.
func ReadHeader(r io.Reader, dst any) error {
	raw, err := ReadRawHeader(r)
	if err != nil {
		return err
	}
	return DecodeRawHeader(raw, dst)
}

// WritePayload writes data as packed little-endian complex128s.
func WritePayload(w io.Writer, data []complex128) error {
	wire, _ := fault.WireBytes(data)
	_, err := w.Write(wire)
	return err
}

// ReadPayloadInto fills dst from r (len(dst) complex128s).
func ReadPayloadInto(r io.Reader, dst []complex128) error {
	wire, store := fault.WireBytes(dst)
	if _, err := io.ReadFull(r, wire); err != nil {
		return fmt.Errorf("serve: reading payload: %w", err)
	}
	store()
	return nil
}
