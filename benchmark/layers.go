package main

import (
	"offt/internal/fft"
	"offt/internal/layout"
	"offt/internal/mpi"
	"offt/internal/pencil"
	"offt/internal/pfft"
)

// spanView answers per-op questions about a traced window's spans.
type spanView struct {
	spans []span
	self  []int64
}

func viewOf(tr *tracer) spanView { return spanView{tr.spans, selfTimes(tr.spans)} }

// wholeMs and selfMs are the per-op mean, in ms, of the summed durations
// (self times) of the op's spans called name.
func (v spanView) wholeMs(name string) float64 { return ms(perOp(v.spans, v.self, name, true)) }
func (v spanView) selfMs(name string) float64  { return ms(perOp(v.spans, v.self, name, false)) }

// breakdownMetrics derives one pipeline's metrics from the spans that
// addBreakdownSpans made of the breakdowns the calls returned. The spans
// of one op cover both directions on every rank; dividing by ranks gives
// the rank average. The kernel and layout step times go under the fft and
// layout layers whichever pipeline ran them.
func breakdownMetrics(m metrics, v spanView, prefix string, ranks float64) {
	step := func(name string) float64 { return v.wholeMs(prefix+"."+name) / ranks }
	m[prefix+".total_ms"] = step("run")
	m[prefix+".wait_ms"] = step("Wait")
	m[prefix+".test_ms"] = step("Test")
	m[prefix+".post_ms"] = step("Ialltoall")
	m[prefix+".unattributed_ms"] = v.selfMs(prefix+".run") / ranks
	m["fft.z_ms"] = step("FFTz")
	m["fft.y_ms"] = step("FFTy")
	m["fft.x_ms"] = step("FFTx")
	m["layout.transpose_ms"] = step("Transpose")
	m["layout.pack_ms"] = step("Pack")
	m["layout.unpack_ms"] = step("Unpack")
	// §5.2.1: hideable computation over itself plus visible communication.
	hide := m["fft.y_ms"] + m["layout.pack_ms"] + m["layout.unpack_ms"] + m["fft.x_ms"]
	comm := m[prefix+".post_ms"] + m[prefix+".wait_ms"] + m[prefix+".test_ms"]
	m[prefix+".overlap_eff"] = 1
	if comm > 0 {
		m[prefix+".overlap_eff"] = hide / (hide + comm)
	}
}

func (s *slabInst) layers(m metrics, tr *tracer) error {
	v := viewOf(tr)
	m["offt.exec_ms"] = v.wholeMs("offt.exec")
	m["offt.scatter_ms"] = v.selfMs("offt.scatter")
	m["offt.dispatch_ms"] = v.selfMs("offt.dispatch")
	m["offt.gather_ms"] = v.selfMs("offt.gather")
	breakdownMetrics(m, v, "pfft", 1) // ExecStats carries the rank average already

	probeFFT(m, tr, slabN, s.in)
	if err := probeLayout(m, tr, slabN, slabRanks, s.in); err != nil {
		return err
	}
	if err := probePlanLifecycle(m, tr, slabOptions()); err != nil {
		return err
	}
	desc := s.plan.Describe()
	logs, err := recordExchanges(slabRanks, func(c mpi.Comm, rank int) error {
		g, err := layout.NewGrid(slabN, slabN, slabN, slabRanks, rank)
		if err != nil {
			return err
		}
		plan, err := pfft.NewPlan(c, g, desc.Variant, desc.Params, fft.Estimate)
		if err != nil {
			return err
		}
		defer plan.Close()
		out, _, err := plan.Forward(layout.ScatterX(s.in, g))
		if err != nil {
			return err
		}
		_, _, err = plan.Backward(out)
		return err
	})
	if err != nil {
		return err
	}
	return probeMemExchange(m, tr, logs)
}

func (s *pencilInst) layers(m metrics, tr *tracer) error {
	breakdownMetrics(m, viewOf(tr), "pencil", pencilRanks)
	probeFFT(m, tr, pencilN, s.full)
	m["mpi.net.join_ms"] = ms(float64(s.joinNs))
	logs, err := recordExchanges(pencilRanks, func(c mpi.Comm, rank int) error {
		g := s.grids[rank]
		plan, err := pencil.NewPlan(c, g, pfft.NEW, pencil.FromParams(s.params, g), fft.Estimate)
		if err != nil {
			return err
		}
		defer plan.Close()
		out, _, err := plan.Forward(append([]complex128(nil), s.in[rank]...))
		if err != nil {
			return err
		}
		_, _, err = plan.Backward(out)
		return err
	})
	if err != nil {
		return err
	}
	return probeNetExchange(m, tr, logs)
}

func (s *serveInst) layers(m metrics, tr *tracer) error {
	v := viewOf(tr)
	m["serve.rtt_ms"] = v.wholeMs("serve.roundtrip") + v.wholeMs("serve.decode")
	m["serve.encode_ms"] = v.wholeMs("serve.encode")
	m["serve.decode_ms"] = v.wholeMs("serve.decode")
	m["serve.exec_ms"] = v.wholeMs("serve.exec")
	m["serve.queue_ms"] = v.wholeMs("serve.queue")
	m["serve.overhead_ms"] = m["serve.rtt_ms"] - m["serve.exec_ms"]
	m["serve.cache_hit_frac"] = float64(s.cacheHits) / float64(s.requests)
	m["serve.shed_frac"] = float64(s.shed) / float64(s.requests)
	m["serve.boot_ms"] = ms(float64(s.bootNs))
	return nil
}

func (s *tuneInst) layers(m metrics, tr *tracer) error {
	sr := s.lastOut.Search
	m["tuner.evals"] = float64(sr.Evals)
	m["tuner.suggestions"] = float64(sr.Suggestions)
	m["tuner.cache_hits"] = float64(sr.CacheHits)
	m["tuner.infeasible"] = float64(sr.Infeasible)
	// The objective executions are the op span's children, so its self
	// time is the tune's wall time minus theirs: the search.
	m["tuner.search_ms"] = viewOf(tr).selfMs("op")
	if len(sr.History) > 0 && sr.BestCost > 0 {
		// History[0] is the §4.4 default point, the first the search tries.
		m["tuner.best_over_default_x"] = sr.History[0].Cost / sr.BestCost
	}
	m["tuner.virt_tuning_ms"] = ms(float64(s.lastOut.VirtualNs))
	return probeModel(m, tr, tuneMachine, tuneRanks, tuneN)
}
