package main

import (
	"errors"
	"fmt"
	"time"

	"offt"
	"offt/internal/fft"
	enginenet "offt/internal/mpi/net"
	"offt/internal/pencil"
	"offt/internal/pfft"
)

const (
	pencilN     = 32
	pencilRanks = 4
)

func pencilOptions() []offt.Option {
	return []offt.Option{offt.WithGrid(pencilN, pencilN, pencilN), offt.WithRanks(pencilRanks), offt.WithDecomp(offt.Pencil)}
}

// rankDone is one rank's report of an op: the instants around its two
// calls and what they returned.
type rankDone struct {
	rank       int
	t0, t1, t2 time.Time
	fwd, bwd   pfft.Breakdown
	err        error
}

// pencilInst is pencil-net-32-p4: four net-engine ranks joined over TCP
// loopback inside this process, each driving its own pencil.Plan.
type pencilInst struct {
	params offt.Params // the plan description's resolved parameters
	grids  []pencil.Grid2D
	full   []complex128   // seeded input cube
	want   []complex128   // its serial spectrum
	got    []complex128   // scratch the ranks' spectra are gathered into
	in     [][]complex128 // each rank's pristine z-pencil of full
	work   [][]complex128 // each rank's working copy (Forward consumes it)
	spec   [][]complex128 // each rank's copy of its forward output (Backward consumes the original)
	back   [][]complex128 // each rank's round-trip result (plan-owned)
	worlds []*enginenet.World
	reqs   []chan struct{} // a send releases the rank into one op
	done   chan rankDone
	ran    chan error // what running the rank bodies returned
	last   []rankDone // the last op's reports, by rank
	joinNs int64
}

func openPencil(seed int64) (instance, error) {
	desc, err := offt.DescribePlan(pencilOptions()...)
	if err != nil {
		return nil, err
	}
	p := pencilRanks
	s := &pencilInst{
		params: desc.Params,
		full:   seededCube(pencilN*pencilN*pencilN, seed),
		got:    make([]complex128, pencilN*pencilN*pencilN),
		grids:  make([]pencil.Grid2D, p),
		in:     make([][]complex128, p),
		work:   make([][]complex128, p),
		spec:   make([][]complex128, p),
		back:   make([][]complex128, p),
		reqs:   make([]chan struct{}, p),
		done:   make(chan rankDone, p),
		ran:    make(chan error, 1),
		last:   make([]rankDone, p),
	}
	s.want = serialSpectrum(s.full, pencilN)
	for r := 0; r < p; r++ {
		g, err := pencil.NewGrid2D(pencilN, pencilN, pencilN, desc.ProcRows, desc.ProcCols(), r)
		if err != nil {
			return nil, err
		}
		s.grids[r] = g
		s.in[r] = make([]complex128, g.InSize())
		pencil.ScatterPencilInto(s.in[r], s.full, g)
		s.work[r] = make([]complex128, g.InSize())
		s.spec[r] = make([]complex128, g.OutSize())
		s.reqs[r] = make(chan struct{})
	}

	var took time.Duration
	if s.worlds, took, err = joinNetWorlds(p); err != nil {
		return nil, err
	}
	s.joinNs = took.Nanoseconds()

	ready := make(chan error, p)
	go func() {
		s.ran <- runNetWorlds(s.worlds, func(c *enginenet.Comm) { s.rankBody(c, c.Rank(), ready) })
	}()
	var initErr error
	for r := 0; r < p; r++ {
		if err := <-ready; err != nil && initErr == nil {
			initErr = err
		}
	}
	if initErr != nil {
		s.close()
		return nil, initErr
	}
	return s, nil
}

// rankBody is what one rank runs inside its world: build the plan, then
// per release copy the input into the working pencil, Forward, keep the
// spectrum, Backward, until the driver closes the request channel. The
// two copies (128 KiB each) are the caller handing its data in and taking
// the spectrum out, and are part of the op.
func (s *pencilInst) rankBody(c *enginenet.Comm, r int, ready chan<- error) {
	g := s.grids[r]
	plan, err := pencil.NewPlan(c, g, pfft.NEW, pencil.FromParams(s.params, g), fft.Estimate)
	ready <- err
	if err != nil {
		return
	}
	defer plan.Close()
	for range s.reqs[r] {
		d := rankDone{rank: r, t0: time.Now()}
		copy(s.work[r], s.in[r])
		var out []complex128
		out, d.fwd, d.err = plan.Forward(s.work[r])
		d.t1 = time.Now()
		if d.err == nil {
			copy(s.spec[r], out)
			s.back[r], d.bwd, d.err = plan.Backward(out)
		}
		d.t2 = time.Now()
		s.done <- d
	}
}

func (s *pencilInst) op(tr *tracer, parent int) error {
	rel := tr.begin("bench.release", parent)
	for r := range s.reqs {
		s.reqs[r] <- struct{}{}
	}
	tr.end(rel)
	var err error
	for range s.reqs {
		d := <-s.done
		s.last[d.rank] = d
		if d.err != nil && err == nil {
			err = fmt.Errorf("rank %d: %w", d.rank, d.err)
		}
	}
	if tr != nil {
		for r, d := range s.last {
			f := tr.add("pencil.Forward", tr.since(d.t0), tr.since(d.t1), parent, 1+r)
			addBreakdownSpans(tr, f, 1+r, "pencil", d.fwd)
			b := tr.add("pencil.Backward", tr.since(d.t1), tr.since(d.t2), parent, 1+r)
			addBreakdownSpans(tr, b, 1+r, "pencil", d.bwd)
		}
	}
	return err
}

// verify checks every rank's round trip against its own input, and on
// the first op gathers the ranks' spectra and compares them with the
// serial transform of the whole cube.
func (s *pencilInst) verify(first bool) error {
	vol := float64(len(s.full))
	for r := range s.grids {
		if err := checkRoundTrip(s.back[r], s.in[r], vol); err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	if !first {
		return nil
	}
	for r, g := range s.grids {
		pencil.GatherPencilInto(s.got, s.spec[r], g)
	}
	return checkSpectrum(s.got, s.want)
}

func (s *pencilInst) virtMs() (float64, error) {
	return simVirtMs(append(pencilOptions(), offt.WithMachine("laptop"))...)
}

// close ends the rank bodies (each world's Run then passes its teardown
// barrier) and closes every world, which drains and shuts its sockets.
func (s *pencilInst) close() error {
	for _, ch := range s.reqs {
		close(ch)
	}
	return errors.Join(<-s.ran, closeNetWorlds(s.worlds))
}
