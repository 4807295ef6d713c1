package pfft

import (
	"fmt"

	"offt/internal/mpi"
)

// RunMany executes m independent 3-D FFTs with inter-array overlap — the
// Kandalla et al. style the paper compares against (§6) and proposes to
// combine with its intra-array method (§7): while one array's all-to-all
// is in flight, the CPU computes on other arrays. Each array has its own
// Engine (its own slab and buffers) over the same communicator; `window`
// bounds the number of arrays with communication in flight.
//
// Each array is processed as a single whole-slab tile (no intra-array
// tiling): FFTz → Transpose (one pass on a RealEngine, booked under FFTz)
// → FFTy → Pack → non-blocking all-to-all, then
// later Wait → Unpack → FFTx. A Test call between per-array phases keeps
// rendezvous traffic progressing without hardware offload.
//
// This style only helps when many independent arrays exist; scientific
// simulations doing successive FFTs on a single array (the paper's target
// workload) cannot use it — which is the paper's criticism of the
// inter-array approach.
func RunMany(engines []Engine, window int) ([]Breakdown, error) {
	m := len(engines)
	if m == 0 {
		return nil, nil
	}
	if window < 1 {
		return nil, fmt.Errorf("pfft: RunMany window %d < 1", window)
	}
	c := engines[0].Comm()
	for _, e := range engines {
		if e.Comm() != c {
			return nil, fmt.Errorf("pfft: RunMany engines must share one communicator")
		}
	}
	bs := make([]Breakdown, m)
	reqs := make([]mpi.Request, m)
	starts := make([]int64, m)

	pending := func(hi int) []mpi.Request {
		lo := hi - window
		if lo < 0 {
			lo = 0
		}
		var out []mpi.Request
		for i := lo; i < hi; i++ {
			if reqs[i] != nil {
				out = append(out, reqs[i])
			}
		}
		return out
	}

	for i := 0; i < m+window; i++ {
		if i < m {
			e := engines[i]
			g := e.Grid()
			b := &bs[i]
			starts[i] = c.Now()

			t := c.Now()
			if fusedFFTz(e, false, true) {
				b.FFTz = c.Now() - t
			} else {
				e.FFTz()
				b.FFTz = c.Now() - t
				t = c.Now()
				e.Transpose(false, true)
				b.Transpose = c.Now() - t
			}

			doTests(c, pending(i), 1, b, nil)

			t = c.Now()
			e.FFTySub(false, 0, 0, g.Nz, 0, g.XC())
			b.FFTy = c.Now() - t

			doTests(c, pending(i), 1, b, nil)

			t = c.Now()
			e.PackSub(0, false, 0, g.Nz, 0, g.Nz, 0, g.XC())
			b.Pack = c.Now() - t

			t = c.Now()
			reqs[i] = e.PostTile(0, g.Nz)
			b.Ialltoall = c.Now() - t
		}
		if i >= window && i-window < m {
			j := i - window
			e := engines[j]
			g := e.Grid()
			b := &bs[j]

			t := c.Now()
			c.Wait(reqs[j])
			b.Wait += c.Now() - t

			t = c.Now()
			e.UnpackSub(0, false, 0, g.Nz, 0, g.Nz, 0, g.YC())
			b.Unpack = c.Now() - t

			doTests(c, pending(min2(i+1, m)), 1, b, nil)

			t = c.Now()
			e.FFTxSub(false, 0, 0, g.Nz, 0, g.YC())
			b.FFTx = c.Now() - t

			b.Total = c.Now() - starts[j]
		}
	}
	return bs, nil
}

func min2(a, b int) int {
	if a < b {
		return a
	}
	return b
}
