package pfft

import (
	"offt/internal/fft"
	"offt/internal/layout"
	"offt/internal/mpi"
)

// OutputFast reports whether a variant's forward output is in the §3.5
// y-z-x layout, which is never: every engine that moves data writes z-y-x.
// It remains only because the benchmark's gather probe still passes its
// answer to layout.GatherYInto.
func OutputFast(Variant, layout.Grid) bool { return false }

// Forward3D executes a distributed forward 3-D FFT on this rank: slab is
// the rank's input x-slab in x-y-z layout (only read: FFTz writes its
// output to an engine-owned slab), and the returned slice is the rank's
// z-y-x output y-slab. Every rank of the communicator must call Forward3D
// with identical variant/parameters.
func Forward3D(c mpi.Comm, g layout.Grid, slab []complex128, v Variant, prm Params, flag fft.Flag) ([]complex128, Breakdown, error) {
	e, err := NewRealEngine(g, c, slab, fft.Forward, flag)
	if err != nil {
		return nil, Breakdown{}, err
	}
	b, err := Run(e, v, prm)
	if err != nil {
		return nil, Breakdown{}, err
	}
	return e.Output(), b, nil
}
