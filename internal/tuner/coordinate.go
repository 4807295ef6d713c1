package tuner

import "math"

// CoordinateDescent minimizes the objective by cyclic exhaustive line
// search: for each dimension in turn it evaluates every candidate value
// (all other dimensions fixed) and keeps the best, repeating until a full
// sweep yields no improvement or the budget runs out. It is the
// "other optimization strategy" the paper's future work proposes to try
// (§7); compared with Nelder–Mead it is immune to simplex collapse but
// spends more evaluations per improvement, which the ablation benchmarks
// quantify.
//
// start must be a valid on-grid configuration (e.g. the §4.4 default
// point). The same history cache, infeasibility accounting and budget
// semantics as NelderMead apply.
func CoordinateDescent(space Space, obj Objective, start []int, maxEvals int) Result {
	if maxEvals <= 0 {
		maxEvals = 100
	}
	res := Result{BestCost: math.Inf(1)}
	st := &nmState{space: space, obj: obj, cache: map[string]float64{}, res: &res, max: maxEvals}

	cur := make([]int, len(start))
	for i, dim := range space.Dims {
		cur[i] = snapDown(dim, start[i])
	}
	curCost := st.evalCfg(cur)

	for sweep := 0; sweep < 32 && st.budgetLeft(); sweep++ {
		improved := false
		for d, dim := range space.Dims {
			if !st.budgetLeft() {
				break
			}
			var line [][]int
			for _, v := range dim.Values {
				if v != cur[d] {
					cand := append([]int(nil), cur...)
					cand[d] = v
					line = append(line, cand)
				}
			}
			bestV, bestC := cur[d], curCost
			for i, c := range st.evalBatch(line, true) {
				if c < bestC {
					bestV, bestC = line[i][d], c
				}
			}
			if bestV != cur[d] {
				cur[d] = bestV
				curCost = bestC
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return res
}
