package pfft

import "sync"

// slotBuf returns communication slot i of bufs sized to n elements,
// growing the slot list lazily and replacing a buffer that is too small.
func slotBuf(bufs *[][]complex128, i, n int) []complex128 {
	for len(*bufs) <= i {
		*bufs = append(*bufs, nil)
	}
	if cap((*bufs)[i]) < n {
		(*bufs)[i] = make([]complex128, n)
	}
	return (*bufs)[i][:n]
}

// span is one contiguous chunk of a parallel kernel call: run fn(w, lo, hi)
// and signal wg. w is the chunk index, unique among the chunks of one call,
// so per-worker scratch (1-D plan clones) indexed by w is never shared.
type span struct {
	fn     func(w, lo, hi int)
	w      int
	lo, hi int
	wg     *sync.WaitGroup
}

// kernelPool fans the intra-rank tile kernels (FFTy/Pack/Unpack/FFTx
// sub-tiles, FFTz rows) across a bounded set of worker
// goroutines. The parallelism lives entirely inside one Engine sub-tile
// call, between two doTests calls, so the tuned Fy/Fp/Fu/Fx manual
// progression cadence is unchanged: Test still fires exactly where
// Algorithms 2–3 place it, just after a sub-tile that completed faster.
type kernelPool struct {
	workers int
	jobs    chan span
}

// newKernelPool returns a pool with workers-1 spawned goroutines (the
// caller is the remaining worker), or nil when workers <= 1 so engines can
// branch to allocation-free serial code.
func newKernelPool(workers int) *kernelPool {
	if workers <= 1 {
		return nil
	}
	p := &kernelPool{workers: workers, jobs: make(chan span, workers)}
	for i := 0; i < workers-1; i++ {
		go func() {
			for sp := range p.jobs {
				sp.fn(sp.w, sp.lo, sp.hi)
				sp.wg.Done()
			}
		}()
	}
	return p
}

// parallel splits [0, n) into at most p.workers contiguous chunks and runs
// fn(w, lo, hi) on each, chunk 0 on the caller. It returns when every chunk
// is done. Chunk indices stay below p.workers, matching per-worker scratch
// arrays of that length.
func (p *kernelPool) parallel(n int, fn func(w, lo, hi int)) {
	if n <= 0 {
		return
	}
	k := p.workers
	if k > n {
		k = n
	}
	chunk := (n + k - 1) / k
	if k == 1 || chunk >= n {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	w := 1
	for lo := chunk; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		p.jobs <- span{fn, w, lo, hi, &wg}
		w++
	}
	fn(0, 0, chunk)
	wg.Wait()
}

// Close stops the pool's goroutines. The pool must be idle.
func (p *kernelPool) Close() {
	if p != nil {
		close(p.jobs)
	}
}
