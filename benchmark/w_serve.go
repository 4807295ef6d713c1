package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"offt/internal/serve"
)

// serveInst is serve-64-p2: the slab-mem-64-p2 plan behind an in-process
// serve.Server on a real loopback HTTP listener, one keep-alive client.
type serveInst struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error // hs.Serve's return value
	tp     *http.Transport
	client *http.Client
	url    string
	bootNs int64

	in, spec, back []complex128
	want           []complex128
	body           bytes.Buffer // reused request body

	// Counts over every transform request of the instance's life.
	requests, cacheHits, shed int
}

func openServe(seed int64) (instance, error) {
	vol := slabN * slabN * slabN
	s := &serveInst{
		in:     seededCube(vol, seed),
		spec:   make([]complex128, vol),
		back:   make([]complex128, vol),
		served: make(chan error, 1),
	}
	s.want = serialSpectrum(s.in, slabN)
	s.body.Grow(16*vol + 256)

	t0 := time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.srv = serve.New(serve.Config{})
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.tp = &http.Transport{MaxIdleConnsPerHost: 1}
	s.client = &http.Client{Transport: s.tp}
	s.url = "http://" + ln.Addr().String()
	resp, err := s.client.Get(s.url + "/healthz")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET /healthz: HTTP %d", resp.StatusCode)
		}
	}
	if err != nil {
		s.close()
		return nil, fmt.Errorf("boot: %w", err)
	}
	s.bootNs = time.Since(t0).Nanoseconds()
	return s, nil
}

func serveRequest(direction, engine string) serve.TransformRequest {
	return serve.TransformRequest{Nx: slabN, Ny: slabN, Nz: slabN, Ranks: slabRanks, Direction: direction, Engine: engine}
}

// post sends one transform request and decodes the reply into dst (nil
// for a sim request, which carries no payload either way). With a tracer
// it records the request span and, under it, the client-side encode, the
// HTTP round trip (with the server's queue and exec times from the reply
// header as children) and the client-side decode.
func (s *serveInst) post(tr *tracer, parent int, req serve.TransformRequest, payload, dst []complex128) (serve.TransformResponse, error) {
	var hdr serve.TransformResponse
	call := tr.begin("serve.request", parent)
	defer tr.end(call)

	enc := tr.begin("serve.encode", call)
	s.body.Reset()
	if err := serve.WriteHeader(&s.body, req); err != nil {
		return hdr, err
	}
	if err := serve.WritePayload(&s.body, payload); err != nil {
		return hdr, err
	}
	tr.end(enc)

	rt := tr.begin("serve.roundtrip", call)
	hreq, err := http.NewRequest(http.MethodPost, s.url+"/v1/transform", bytes.NewReader(s.body.Bytes()))
	if err != nil {
		return hdr, err
	}
	hreq.Header.Set("Content-Type", "application/octet-stream")
	s.requests++
	resp, err := s.client.Do(hreq)
	if err != nil {
		return hdr, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			s.shed++
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return hdr, fmt.Errorf("POST /v1/transform: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := serve.ReadHeader(resp.Body, &hdr); err != nil {
		return hdr, err
	}
	tr.end(rt)
	if tr != nil {
		tr.layAfter(rt, 0, []string{"serve.queue", "serve.exec"}, []int64{hdr.QueueNs, hdr.ExecNs})
	}
	if hdr.CacheHit {
		s.cacheHits++
	}

	dec := tr.begin("serve.decode", call)
	if dst != nil {
		if hdr.Elements != len(dst) {
			return hdr, fmt.Errorf("reply carries %d elements, want %d", hdr.Elements, len(dst))
		}
		if err := serve.ReadPayloadInto(resp.Body, dst); err != nil {
			return hdr, err
		}
	}
	// Reading to EOF lets the transport put the connection back.
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return hdr, err
	}
	tr.end(dec)
	return hdr, nil
}

func (s *serveInst) op(tr *tracer, parent int) error {
	if _, err := s.post(tr, parent, serveRequest("forward", ""), s.in, s.spec); err != nil {
		return err
	}
	_, err := s.post(tr, parent, serveRequest("backward", ""), s.spec, s.back)
	return err
}

func (s *serveInst) verify(first bool) error {
	if first {
		if err := checkSpectrum(s.spec, s.want); err != nil {
			return err
		}
	}
	return checkRoundTrip(s.back, s.in, float64(len(s.in)))
}

// virtMs asks the HTTP API for the same plan on the sim engine.
func (s *serveInst) virtMs() (float64, error) {
	req := serveRequest("", "sim")
	req.Machine = "laptop"
	hdr, err := s.post(nil, -1, req, nil, nil)
	if err != nil {
		return 0, err
	}
	return ms(float64(hdr.VirtualNs)), nil
}

// close drains the service (which closes every cached plan's world),
// shuts the HTTP server down and drops the client's idle connection.
func (s *serveInst) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.tp.CloseIdleConnections()
	drainErr := s.srv.Drain(ctx)
	shutErr := s.hs.Shutdown(ctx)
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		shutErr = errors.Join(shutErr, err)
	}
	return errors.Join(drainErr, shutErr)
}
