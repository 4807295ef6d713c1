package tuner

import (
	"runtime"
	"sync"
)

// lookahead returns the parts of a batch computation. prefetch starts the
// costs of cfgs, which the caller no longer modifies, on up to GOMAXPROCS
// goroutines; get, called from the search's one goroutine in commit order,
// waits for a started cost or else computes it there; join waits for every
// goroutine started. cost must be safe for concurrent use. A cost computed
// but never asked for is dropped.
func lookahead(cost func(cfg []int) (int64, error)) (prefetch func(cfgs [][]int), get func(cfg []int) (int64, error), join func()) {
	started := map[string]func() (int64, error){}
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	prefetch = func(cfgs [][]int) {
		for _, cfg := range cfgs {
			var ns int64
			var err error
			done := make(chan struct{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				sem <- struct{}{}
				ns, err = cost(cfg)
				<-sem
				close(done)
			}()
			started[Key(cfg)] = func() (int64, error) { <-done; return ns, err }
		}
	}
	get = func(cfg []int) (int64, error) {
		k := Key(cfg)
		if wait, ok := started[k]; ok {
			delete(started, k)
			return wait()
		}
		return cost(cfg)
	}
	return prefetch, get, wg.Wait
}
