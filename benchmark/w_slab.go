package main

import (
	"context"

	"offt"
	"offt/internal/pfft"
)

// Shape shared by slab-mem-64-p2 and serve-64-p2: the ROADMAP's baseline
// grid on as many ranks as the box has cores.
const (
	slabN     = 64
	slabRanks = 2
)

func slabOptions() []offt.Option {
	return []offt.Option{offt.WithGrid(slabN, slabN, slabN), offt.WithRanks(slabRanks)}
}

// slabInst is slab-mem-64-p2: the public offt.Plan on the mem engine.
type slabInst struct {
	plan           *offt.Plan
	in, spec, back []complex128
	want           []complex128 // serial spectrum of in
}

func openSlab(seed int64) (instance, error) {
	vol := slabN * slabN * slabN
	s := &slabInst{
		in:   seededCube(vol, seed),
		spec: make([]complex128, vol),
		back: make([]complex128, vol),
	}
	s.want = serialSpectrum(s.in, slabN)
	var err error
	if s.plan, err = offt.NewPlan(slabOptions()...); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *slabInst) op(tr *tracer, parent int) error {
	if tr == nil {
		if err := s.plan.ForwardInto(s.spec, s.in); err != nil {
			return err
		}
		return s.plan.BackwardInto(s.back, s.spec)
	}
	ctx := context.Background()
	id := tr.begin("offt.exec", parent)
	st, err := s.plan.ForwardIntoCtx(ctx, s.spec, s.in)
	tr.end(id)
	if err != nil {
		return err
	}
	addExecSpans(tr, id, st)
	id = tr.begin("offt.exec", parent)
	st, err = s.plan.BackwardIntoCtx(ctx, s.back, s.spec)
	tr.end(id)
	if err != nil {
		return err
	}
	addExecSpans(tr, id, st)
	return nil
}

// addExecSpans turns the stage and breakdown durations one public call
// returned into child spans of the span the benchmark recorded around
// that call: scatter, dispatch and gather under the call, the
// rank-averaged pipeline run under dispatch, its steps under the run.
func addExecSpans(tr *tracer, call int, st offt.ExecStats) {
	ids := tr.layAfter(call, 0, []string{"offt.scatter", "offt.dispatch", "offt.gather"},
		[]int64{st.ScatterNs, st.DispatchNs, st.GatherNs})
	if ids[1] >= 0 {
		addBreakdownSpans(tr, ids[1], 0, "pfft", st.Breakdown)
	}
}

// addBreakdownSpans records one pipeline run (prefix.run, as long as the
// breakdown's Total) under parent and its steps under the run.
func addBreakdownSpans(tr *tracer, parent, track int, prefix string, b pfft.Breakdown) {
	if b.Total <= 0 {
		return
	}
	start := tr.spans[parent].start
	run := tr.add(prefix+".run", start, start+b.Total, parent, track)
	names := pfft.StepNames()
	for i := range names {
		names[i] = prefix + "." + names[i]
	}
	tr.layAfter(run, track, names, b.Steps())
}

func (s *slabInst) verify(first bool) error {
	if first {
		if err := checkSpectrum(s.spec, s.want); err != nil {
			return err
		}
	}
	return checkRoundTrip(s.back, s.in, float64(len(s.in)))
}

func (s *slabInst) virtMs() (float64, error) {
	return simVirtMs(append(slabOptions(), offt.WithMachine("laptop"))...)
}

// simVirtMs builds the described plan on the sim engine, runs one forward
// transform in virtual time and returns its completion time.
func simVirtMs(opts ...offt.Option) (float64, error) {
	plan, err := offt.NewPlan(append(opts, offt.WithEngine(offt.Sim))...)
	if err != nil {
		return 0, err
	}
	defer plan.Close()
	if _, err := plan.Forward(nil); err != nil {
		return 0, err
	}
	total, _ := plan.VirtualTimes()
	return ms(float64(total)), nil
}

func (s *slabInst) close() error { return s.plan.Close() }
