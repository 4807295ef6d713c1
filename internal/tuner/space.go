// Package tuner is the auto-tuning framework of §4: an Active-Harmony-style
// search over a discrete parameter space using the Nelder–Mead simplex
// method, plus a random-search baseline. It implements the paper's
// techniques for fast, effective tuning:
//
//  1. infeasible configurations are penalized with +Inf without executing
//     the tuning target;
//  2. previously tested configurations are answered from a history cache;
//  3. the FFT objective excludes the parameter-independent FFTz and
//     Transpose steps (it minimizes Breakdown.TunedPortion);
//  4. the search space is log-reduced to powers of two plus the boundary
//     values;
//  5. the initial simplex is built around the §4.4 default point.
package tuner

import (
	"fmt"
	"strconv"
)

// Dim is one tunable parameter: a name and its candidate values in
// ascending order (already log-reduced by the space builder).
type Dim struct {
	Name   string
	Values []int
}

// Space is a discrete search space.
type Space struct {
	Dims []Dim
	// prefetch, set by tune, starts the costs of a batch before it is committed.
	prefetch func(cfgs [][]int)
}

// Size returns the number of configurations in the space.
func (s Space) Size() int64 {
	n := int64(1)
	for _, d := range s.Dims {
		n *= int64(len(d.Values))
	}
	return n
}

// Clamp rounds a continuous point (in index coordinates) to the nearest
// valid configuration.
func (s Space) Clamp(x []float64) []int {
	cfg := make([]int, len(s.Dims))
	for i, d := range s.Dims {
		idx := int(x[i] + 0.5)
		if x[i] < 0 {
			idx = 0
		}
		if idx < 0 {
			idx = 0
		}
		if idx > len(d.Values)-1 {
			idx = len(d.Values) - 1
		}
		cfg[i] = d.Values[idx]
	}
	return cfg
}

// IndexOf returns the index coordinates of a configuration (each value must
// be present in its dimension's list).
func (s Space) IndexOf(cfg []int) ([]float64, error) {
	if len(cfg) != len(s.Dims) {
		return nil, fmt.Errorf("tuner: config length %d, want %d", len(cfg), len(s.Dims))
	}
	x := make([]float64, len(cfg))
	for i, d := range s.Dims {
		found := -1
		for j, v := range d.Values {
			if v == cfg[i] {
				found = j
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("tuner: value %d not in dimension %s %v", cfg[i], d.Name, d.Values)
		}
		x[i] = float64(found)
	}
	return x, nil
}

// Key renders a configuration as a cache key.
func Key(cfg []int) string { return string(AppendKey(nil, cfg)) }

// AppendKey appends cfg's cache key to b. A lookup through
// m[string(AppendKey(buf[:0], cfg))] into a reused buffer allocates nothing.
func AppendKey(b []byte, cfg []int) []byte {
	for i, v := range cfg {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return b
}

// PowersOfTwoUpTo returns the §4.4 log-reduced value list: 1, 2, 4, ... up
// to max, with max itself appended when it is not a power of two (boundary
// values stay reachable).
func PowersOfTwoUpTo(max int) []int {
	if max < 1 {
		return []int{1}
	}
	var vals []int
	for v := 1; v <= max; v *= 2 {
		vals = append(vals, v)
	}
	if vals[len(vals)-1] != max {
		vals = append(vals, max)
	}
	return vals
}

// ZeroAndPowersOfTwoUpTo prepends 0 (e.g. "no Test calls") to the
// log-reduced list.
func ZeroAndPowersOfTwoUpTo(max int) []int {
	return append([]int{0}, PowersOfTwoUpTo(max)...)
}

// IntRange returns the dense list lo..hi (for parameters with few values,
// like the window size W, which §4.4 exempts from log reduction).
func IntRange(lo, hi int) []int {
	if hi < lo {
		hi = lo
	}
	vals := make([]int, 0, hi-lo+1)
	for v := lo; v <= hi; v++ {
		vals = append(vals, v)
	}
	return vals
}
