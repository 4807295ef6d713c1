package pencil

import (
	"fmt"

	"offt/internal/mpi"
	"offt/internal/pfft"
)

// Params2D are the tunable parameters of the overlapped pencil transform:
// phase A (the row-group z↔y exchange) is tiled along the local x extent,
// phase B (the column-group x↔y exchange) along the local z extent; each
// phase pipelines its tiles through a window of concurrent all-to-alls
// with F MPI_Test calls per compute step, exactly the paper's §3 machinery
// applied to the 2-D decomposition (its §7 future work).
type Params2D struct {
	TA, WA int // phase A: x-tile size and window
	TB, WB int // phase B: z-tile size and window
	F      int // Test calls per compute step per tile
	// Comm is the all-to-all exchange schedule used by both phases (the
	// 11th tuned parameter); the zero value is round-robin pairwise.
	Comm mpi.CommAlg
}

// DefaultParams2D mirrors the §4.4 default-point philosophy: some tiling,
// window 2, p/2 tests.
func DefaultParams2D(g Grid2D) Params2D {
	clamp := func(v, lo, hi int) int {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	f := g.P() / 2
	if f < 1 {
		f = 1
	}
	return Params2D{
		TA: clamp(g.XD.MaxCount()/4, 1, g.XD.MaxCount()),
		WA: 2,
		TB: clamp(g.ZD.MaxCount()/4, 1, g.ZD.MaxCount()),
		WB: 2,
		F:  f,
	}
}

// FromParams derives the overlapped pencil parameters from the public
// Table-1 parameter set: T tiles both exchange phases (clamped to each
// phase's extent), W windows both (clamped to the tile count), and Fy is
// the Test frequency. The remaining slab parameters (Px/Pz/Uy/Uz, the
// other frequencies, Pr) have no pencil counterpart here and are ignored.
func FromParams(p pfft.Params, g Grid2D) Params2D {
	clamp := func(v, lo, hi int) int {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	ta := clamp(p.T, 1, g.XD.MaxCount())
	tb := clamp(p.T, 1, g.ZD.MaxCount())
	f := p.Fy
	if f < 0 {
		f = 0
	}
	return Params2D{
		TA:   ta,
		WA:   clamp(p.W, 1, (g.XD.MaxCount()+ta-1)/ta),
		TB:   tb,
		WB:   clamp(p.W, 1, (g.ZD.MaxCount()+tb-1)/tb),
		F:    f,
		Comm: p.Comm,
	}
}

// Validate checks the parameters against the geometry.
func (p Params2D) Validate(g Grid2D) error {
	switch {
	case p.TA < 1 || p.TA > g.XD.MaxCount():
		return fmt.Errorf("pencil: TA=%d out of range [1,%d]", p.TA, g.XD.MaxCount())
	case p.TB < 1 || p.TB > g.ZD.MaxCount():
		return fmt.Errorf("pencil: TB=%d out of range [1,%d]", p.TB, g.ZD.MaxCount())
	case p.WA < 1 || p.WB < 1:
		return fmt.Errorf("pencil: windows must be >= 1 (got %d, %d)", p.WA, p.WB)
	case p.F < 0:
		return fmt.Errorf("pencil: F=%d must be >= 0", p.F)
	case !p.Comm.Valid():
		return fmt.Errorf("pencil: Comm=%d is not a known exchange schedule", int(p.Comm))
	}
	return nil
}

// wholeExtent is the parameter set of the blocking transform: one tile
// spanning each phase's whole extent, no Test calls.
func wholeExtent(g Grid2D, comm mpi.CommAlg) Params2D {
	return Params2D{TA: g.XD.MaxCount(), WA: 1, TB: g.ZD.MaxCount(), WB: 1, Comm: comm}
}
