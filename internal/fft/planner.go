package fft

import (
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Flag selects how much effort the planner spends choosing a decomposition,
// mirroring FFTW's FFTW_ESTIMATE / FFTW_MEASURE / FFTW_PATIENT flags. The
// paper tunes its FFTW-delegated steps with FFTW_PATIENT (§4.1). The
// harness does not measure Patient planning for Table 4's "FFTW tuning
// time" column: it models that cost as a fixed multiple of the baseline's
// run time (fftwPatientFactor in internal/harness).
type Flag int

const (
	// Estimate picks the default factor order without timing anything.
	Estimate Flag = iota
	// Measure times a few candidate factor orders with a few repetitions.
	Measure
	// Patient times every candidate order with more repetitions.
	Patient
)

func (f Flag) String() string {
	switch f {
	case Estimate:
		return "estimate"
	case Measure:
		return "measure"
	default:
		return "patient"
	}
}

// PlanInfo records what the planner did, for tuning-time accounting.
type PlanInfo struct {
	Candidates int           // factor orders considered
	Reps       int           // timing repetitions per candidate
	Elapsed    time.Duration // wall time spent measuring
	Factors    []int         // chosen order (nil for Bluestein lengths)
}

// Plan1D returns a plan for length n chosen according to flag, plus a record
// of the planning work. Measured planning uses wall-clock timing of real
// transforms on pseudo-random data (seeded, so candidate ranking is stable
// across runs on an unloaded machine).
func Plan1D(n int, dir Direction, flag Flag) (*Plan, PlanInfo) {
	base := NewPlan(n, dir)
	info := PlanInfo{Candidates: 1, Factors: base.Factors()}
	if flag == Estimate || base.blue != nil || n < 4 {
		return base, info
	}
	cands := candidateOrders(base.factors, flag)
	reps := 2
	if flag == Patient {
		reps = 5
	}
	info.Reps = reps

	rng := rand.New(rand.NewSource(int64(n)*7919 + int64(dir)))
	data := make([]complex128, n)
	for i := range data {
		data[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
	}
	work := make([]complex128, n)

	start := time.Now()
	best := base
	bestT := timePlan(base, work, data, reps)
	for _, f := range cands {
		p, err := newPlanFactors(n, dir, f)
		if err != nil {
			continue
		}
		info.Candidates++
		if t := timePlan(p, work, data, reps); t < bestT {
			best, bestT = p, t
		}
	}
	info.Elapsed = time.Since(start)
	info.Factors = best.Factors()
	return best, info
}

func timePlan(p *Plan, work, data []complex128, reps int) time.Duration {
	bestT := time.Duration(1<<62 - 1)
	for r := 0; r < reps; r++ {
		copy(work, data)
		t0 := time.Now()
		p.InPlace(work)
		if d := time.Since(t0); d < bestT {
			bestT = d
		}
	}
	return bestT
}

// candidateOrders generates alternative factor orderings for the given
// default decomposition: reversed, all-twos instead of fours, fours merged
// from twos, large-factors-first, and (for Patient) a few deterministic
// shuffles.
func candidateOrders(def []int, flag Flag) [][]int {
	seen := map[string]bool{key(def): true}
	var out [][]int
	add := func(f []int) {
		k := key(f)
		if !seen[k] {
			seen[k] = true
			out = append(out, f)
		}
	}

	rev := make([]int, len(def))
	for i, r := range def {
		rev[len(def)-1-i] = r
	}
	add(rev)

	// Split every 4 into 2·2.
	var twos []int
	for _, r := range def {
		if r == 4 {
			twos = append(twos, 2, 2)
		} else {
			twos = append(twos, r)
		}
	}
	add(twos)

	// Merge pairs of 2 into 4.
	var fours []int
	n2 := 0
	for _, r := range def {
		if r == 2 {
			n2++
		} else {
			fours = append(fours, r)
		}
	}
	for ; n2 >= 2; n2 -= 2 {
		fours = append([]int{4}, fours...)
	}
	if n2 == 1 {
		fours = append(fours, 2)
	}
	add(fours)

	// Regroup the power-of-two part into radix-8 stages (split-radix-2
	// butterflies, see stage8) with a 2 or 4 remainder: fewer, denser
	// passes. Only the measured flags ever select this — the default
	// order is unchanged.
	e2 := 0
	var odd []int
	for _, r := range def {
		switch r {
		case 2:
			e2++
		case 4:
			e2 += 2
		default:
			odd = append(odd, r)
		}
	}
	if e2 >= 3 {
		var eights []int
		for i := 0; i < e2/3; i++ {
			eights = append(eights, 8)
		}
		switch e2 % 3 {
		case 1:
			eights = append(eights, 2)
		case 2:
			eights = append(eights, 4)
		}
		add(append(eights, odd...))
	}

	// Large factors first.
	big := append([]int(nil), def...)
	sort.Sort(sort.Reverse(sort.IntSlice(big)))
	add(big)
	// Small factors first.
	small := append([]int(nil), def...)
	sort.Ints(small)
	add(small)

	if flag == Patient {
		rng := rand.New(rand.NewSource(int64(len(def)) + 12345))
		for i := 0; i < 4; i++ {
			sh := append([]int(nil), def...)
			rng.Shuffle(len(sh), func(a, b int) { sh[a], sh[b] = sh[b], sh[a] })
			add(sh)
		}
	}
	return out
}

func key(f []int) string {
	b := make([]byte, len(f))
	for i, r := range f {
		b[i] = byte(r)
	}
	return string(b)
}

// planCache memoizes planner results per (n, dir, flag) with per-key
// singleflight: the global lock guards only the map, never the (possibly
// wall-clock-timed) Plan1D call itself. Concurrent ranks planning distinct
// lengths measure in parallel; concurrent requests for the same key share
// one measurement through the entry's sync.Once.
var planCache struct {
	sync.Mutex
	m map[cacheKey]*planEntry
}

// planEntry is one singleflight slot: whoever created or found the entry
// runs/waits on once, outside the cache lock.
type planEntry struct {
	once sync.Once
	p    *Plan
}

type cacheKey struct {
	n    int
	dir  Direction
	flag Flag
}

// Plan1DCached is Plan1D with process-wide memoization. The returned plan is
// shared: callers that transform concurrently must Clone it. Measure/Patient
// planning for distinct keys proceeds concurrently; duplicate requests for
// one key coalesce into a single Plan1D call.
func Plan1DCached(n int, dir Direction, flag Flag) *Plan {
	k := cacheKey{n, dir, flag}
	planCache.Lock()
	if planCache.m == nil {
		planCache.m = make(map[cacheKey]*planEntry)
	}
	e, ok := planCache.m[k]
	if !ok {
		e = &planEntry{}
		planCache.m[k] = e
	}
	planCache.Unlock()
	e.once.Do(func() {
		e.p, _ = Plan1D(n, dir, flag)
	})
	return e.p
}

// Plan1DClones returns k independent clones of the cached plan for
// (n, dir, flag). The clones share the immutable twiddle/stage tables but
// carry private scratch, so a worker pool can hand one to each worker and
// transform concurrently.
func Plan1DClones(n int, dir Direction, flag Flag, k int) []*Plan {
	base := Plan1DCached(n, dir, flag)
	out := make([]*Plan, k)
	for i := range out {
		out[i] = base.Clone()
	}
	return out
}
