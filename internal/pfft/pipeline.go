package pfft

import (
	"offt/internal/mpi"
)

// Phase is one exchange phase of a distributed transform: a run of tiles,
// each moved by one all-to-all, with computation on either side of the
// exchange. It is the unit every transform in this repository is built
// from: the slab forward transform is FFTz, Transpose and one phase
// {FFTy+Pack, post, Unpack+FFTx}; slab backward is one phase {FFTx⁻¹+Repack,
// post, Scatter+FFTy⁻¹} followed by the inverse transpose and FFTz⁻¹; the
// pencil transforms are two phases each; and a cost model is the same
// phases with tile functions that charge virtual time instead of computing.
//
// slot is the communication buffer the pipeline assigned to the tile. win
// holds the requests currently in flight; the tile function spreads its
// MPI_Test calls over it (Pipeline.Tests) and accounts its kernels through
// Pipeline.Step. win is empty on the blocking path.
type Phase struct {
	// Front computes tile's pre-exchange steps and packs it into slot.
	Front func(tile, slot int, win []mpi.Request)
	// Post starts the non-blocking all-to-all of the tile packed in slot.
	// Every rank posts exactly one collective per tile, in tile order, on
	// every path through the pipeline, which keeps collective sequence
	// numbers aligned even when only some ranks downgrade.
	Post func(tile, slot int) mpi.Request
	// Back unpacks the tile received in slot and computes its
	// post-exchange steps.
	Back func(tile, slot int, win []mpi.Request)
}

// Pipeline executes exchange phases for one rank and owns everything an
// execution accumulates: the per-step Breakdown, the request window, the
// fault monitor that decides on downgrades, and (after EnableTrace) the
// StepEvent timeline. A plan builds one Pipeline, binds its phases' tile
// functions to it once, and reuses both across executions, so the steady
// state allocates nothing.
type Pipeline struct {
	c mpi.Comm
	// B is the breakdown of the execution in progress. Tile functions
	// charge their kernels to its fields through Step.
	B     Breakdown
	start int64

	reqs []mpi.Request
	mon  FaultMonitor

	rec *traceRec // nil unless EnableTrace
	// tileBase offsets recorded tile indices so a later phase's tiles
	// number after an earlier phase's and post/wait pairs stay unique
	// within one execution.
	tileBase int
}

// NewPipeline returns a pipeline over communicator c.
func NewPipeline(c mpi.Comm) *Pipeline { return &Pipeline{c: c} }

// EnableTrace turns on step-event recording: every later execution
// rebuilds the timeline returned by Events. Events reuse the timestamps the
// Breakdown takes anyway, so a traced execution reads the clock exactly as
// often as an untraced one.
func (p *Pipeline) EnableTrace() {
	if p.rec == nil {
		p.rec = &traceRec{}
	}
}

// Events returns the timeline of the most recent execution (nil without
// EnableTrace). The slice is valid until the next Begin.
func (p *Pipeline) Events() []StepEvent {
	if p.rec == nil {
		return nil
	}
	return p.rec.events
}

// Begin starts one execution: it clears the breakdown and the timeline,
// re-arms the fault monitor and selects the all-to-all schedule for every
// exchange the execution posts. The schedule is re-selected each time
// because the communicator may be shared with plans tuned differently;
// engines without an ExchangeSetter (a single-rank self communicator) are
// pairwise-equivalent.
func (p *Pipeline) Begin(alg mpi.CommAlg) {
	p.B = Breakdown{}
	p.rec.reset()
	p.tileBase = 0
	p.mon.Init(p.c)
	applied := mpi.SetExchange(p.c, mpi.Exchange{Alg: alg})
	// The timeline names the schedule so Post/Wait spans can be attributed
	// to it; default pairwise stays silent so untuned timelines are
	// unchanged.
	if p.rec != nil && applied && alg != mpi.CommPairwise {
		p.rec.instant("Comm="+alg.String(), p.c.Now(), -1)
	}
	p.start = p.c.Now()
}

// End closes the execution and returns its breakdown.
func (p *Pipeline) End() Breakdown {
	p.B.Total = p.c.Now() - p.start
	return p.B
}

// Step closes a step that started at engine-clock time t: the elapsed time
// is added to acc (a field of p.B) and recorded as one event. tile is the
// phase-local tile index, or −1 for a step outside any phase.
func (p *Pipeline) Step(acc *int64, name string, t int64, tile int) {
	now := p.c.Now()
	*acc += now - t
	if tile >= 0 {
		tile += p.tileBase
	}
	p.rec.add(name, t, now, tile)
}

// Tests issues n MPI_Test calls over the window of in-flight requests.
func (p *Pipeline) Tests(win []mpi.Request, n int) {
	doTests(p.c, win, n, &p.B, p.rec)
}

// doTests issues n MPI_Test calls over the window of active requests,
// accounting the time to b's Test bucket and recording the whole burst as
// one event.
func doTests(c mpi.Comm, window []mpi.Request, n int, b *Breakdown, rec *traceRec) {
	if len(window) == 0 || n <= 0 {
		return
	}
	t := c.Now()
	for j := 0; j < n; j++ {
		c.Test(window...)
	}
	now := c.Now()
	b.Test += now - t
	rec.addTestBurst(t, now)
}

// Run executes one phase of k tiles with at most w of them in flight. A
// window of 0 is the non-overlapped pipeline of Baseline, NEW-0 and TH-0:
// per tile Front, a blocking all-to-all, Back, all in slot 0.
func (p *Pipeline) Run(k, w int, ph *Phase) {
	if cap(p.reqs) < k {
		p.reqs = make([]mpi.Request, k)
	}
	reqs := p.reqs[:k]
	for i := range reqs {
		reqs[i] = nil
	}
	if w == 0 {
		p.finishBlocking(ph, reqs, 1, 0, 0, 0)
	} else {
		p.overlap(ph, reqs, w)
	}
	p.tileBase += k
}

// overlap is Algorithm 1: iteration i packs tile i, waits for tile i−w,
// posts tile i and unpacks tile i−w. Tile i uses slot i mod (w+1), which
// guarantees a slot's previous tile has been waited for and unpacked before
// reuse. Front runs with the w previous tiles as its Test window
// (Algorithm 2), Back with the up to w next tiles already posted
// (Algorithm 3).
//
// On a misbehaving transport — a tile wait missing its soft deadline, or
// persistent retransmission pressure (see FaultMonitor) — the loop
// downgrades: the rest of the phase runs on the blocking path, which
// produces the numerically identical result.
func (p *Pipeline) overlap(ph *Phase, reqs []mpi.Request, w int) {
	c := p.c
	k := len(reqs)
	slots := w + 1
	for i := 0; i < k+w; i++ {
		if i < k {
			lo := i - w
			if lo < 0 {
				lo = 0
			}
			ph.Front(i, i%slots, reqs[lo:i])
		}
		if i >= w {
			j := i - w
			t := c.Now()
			ok := p.mon.WaitTile(c, reqs[j])
			p.Step(&p.B.Wait, "Wait", t, j)
			if !ok {
				p.B.Downgrades++
				p.rec.instant("Downgrade", c.Now(), p.tileBase+j)
				hi := i
				if hi > k {
					hi = k
				}
				// Tile i, when there is one, is packed but not posted.
				p.finishBlocking(ph, reqs, slots, j, hi, i+1)
				return
			}
		}
		if i < k {
			t := c.Now()
			reqs[i] = ph.Post(i, i%slots)
			p.Step(&p.B.Ialltoall, "Ialltoall", t, i)
		}
		if i >= w {
			j := i - w
			hi := j + w + 1
			if hi > k {
				hi = k
			}
			ph.Back(j, j%slots, reqs[j+1:hi])
		}
	}
}

// finishBlocking completes a phase without overlap. Tiles [lo, hi) are
// posted but not unpacked: they are drained in order. Tiles from hi on are
// not posted: each goes through Front (unless it is below packed, i.e. the
// overlapped loop packed it before giving up), a blocking all-to-all and
// Back. The blocking all-to-all is a post followed by a wait — which is
// all Alltoallv is in every engine — charged to Wait and recorded as one
// Alltoall event. Plain Wait is safe after a missed soft deadline: the
// requests stay valid and the self-healing transport still converges.
func (p *Pipeline) finishBlocking(ph *Phase, reqs []mpi.Request, slots, lo, hi, packed int) {
	c := p.c
	for j := lo; j < hi; j++ {
		t := c.Now()
		p.mon.Wait(c, reqs[j])
		p.Step(&p.B.Wait, "Wait", t, j)
		ph.Back(j, j%slots, nil)
	}
	for j := hi; j < len(reqs); j++ {
		if j >= packed {
			ph.Front(j, j%slots, nil)
		}
		t := c.Now()
		reqs[j] = ph.Post(j, j%slots)
		p.mon.Wait(c, reqs[j])
		p.Step(&p.B.Wait, "Alltoall", t, j)
		ph.Back(j, j%slots, nil)
	}
}
