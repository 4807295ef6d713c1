package main

import (
	"fmt"
	"math"
	"math/rand"

	"offt/internal/fft"
)

// verifyTol is the relative tolerance of every numerical check.
const verifyTol = 1e-9

// seededCube returns n pseudo-random complex values in [-1, 1)² drawn
// from seed: the same seed gives the same input.
func seededCube(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	a := make([]complex128, n)
	for i := range a {
		a[i] = complex(2*rng.Float64()-1, 2*rng.Float64()-1)
	}
	return a
}

// checkRoundTrip requires back = scale·in within verifyTol of the largest
// expected magnitude (the transforms are unnormalized: scale is the grid
// volume).
func checkRoundTrip(back, in []complex128, scale float64) error {
	if len(back) != len(in) {
		return fmt.Errorf("round trip: length %d, want %d", len(back), len(in))
	}
	var worst, peak float64 // squared magnitudes
	s := complex(scale, 0)
	for i, v := range in {
		want := v * s
		worst = max(worst, abs2(back[i]-want))
		peak = max(peak, abs2(want))
	}
	return withinTol("round trip", worst, peak)
}

func abs2(c complex128) float64 { return real(c)*real(c) + imag(c)*imag(c) }

// withinTol takes the squared worst error and squared peak magnitude of a
// comparison. A NaN anywhere makes it fail.
func withinTol(what string, worst2, peak2 float64) error {
	worst, peak := math.Sqrt(worst2), math.Sqrt(peak2)
	if !(worst <= verifyTol*peak) {
		return fmt.Errorf("%s: max error %.3g exceeds %.3g (%.0e of the peak magnitude)", what, worst, verifyTol*peak, verifyTol)
	}
	return nil
}

// serialSpectrum is the independent reference: the single-threaded
// fft.Plan3D transform of in.
func serialSpectrum(in []complex128, n int) []complex128 {
	want := append([]complex128(nil), in...)
	fft.NewPlan3D(n, n, n, fft.Forward).Transform(want)
	return want
}

// checkSpectrum requires spec to match the serial reference spectrum.
func checkSpectrum(spec, want []complex128) error {
	if len(spec) != len(want) {
		return fmt.Errorf("spectrum: length %d, want %d", len(spec), len(want))
	}
	var worst, peak float64
	for i, v := range want {
		worst = max(worst, abs2(spec[i]-v))
		peak = max(peak, abs2(v))
	}
	return withinTol("spectrum against serial fft.Plan3D", worst, peak)
}
