// FROZEN REFERENCE KERNEL — DO NOT EDIT.
//
// Every wall-clock end-to-end number this benchmark reports (op_x_ref,
// setup_s) is a ratio against the run time of the kernel in this file,
// measured in the same window on the same machine. Any edit to the
// kernel — its size, its sweeps, its arithmetic, its threading —
// changes the unit all recorded numbers are expressed in and so
// invalidates every one of them. refChecksum pins the arithmetic: the
// benchmark refuses to run when it does not match.
//
// The kernel imports nothing from the repository, so no change to offt
// can speed it up or slow it down. It is shaped like the work it is
// compared against (butterflies over contiguous rows, then a strided
// transpose of an array a little smaller than one core's L2) so that
// whatever slows the machine down for an FFT slows the kernel down by
// about as much.

package main

import (
	"math"
	"sync"
	"time"
)

const (
	refN      = 48                 // edge of the per-thread cube
	refVol    = refN * refN * refN // 110,592 complex128 = 1.69 MiB
	refSweeps = 5

	// refChecksum is the FNV-1a hash of the bits of thread 0's array
	// after one kernel call on the seeded start state.
	refChecksum uint64 = 0x5ae91081df8a70c9

	// refNominalSec converts a time on the reference clock (a multiple of
	// one kernel call) into nominal seconds for the contract's setup_s.
	refNominalSec = 0.003
)

// refHalf are the butterfly half-spans of the five sweeps; each divides
// a row of 48 into whole blocks of 2·half.
var refHalf = [refSweeps]int{24, 12, 6, 3, 1}

// refThread is one thread's private state.
type refThread struct {
	a, b []complex128
}

// refKernel runs the reference kernel on a fixed number of threads: the
// caller's goroutine is thread 0, the others are parked workers, so a
// call allocates nothing.
type refKernel struct {
	threads []*refThread
	tw      [refSweeps][]complex128
	start   []chan struct{}
	done    chan struct{}
	stop    sync.Once
}

func newRefKernel(threads int) *refKernel {
	if threads < 1 {
		threads = 1
	}
	k := &refKernel{done: make(chan struct{}, threads)}
	// Twiddles are powers of the exactly representable-ish unit 0.6+0.8i,
	// built by repeated multiplication so no libm call decides a bit.
	for s, h := range refHalf {
		k.tw[s] = make([]complex128, h)
		wr, wi := 1.0, 0.0
		for j := 0; j < h; j++ {
			k.tw[s][j] = complex(wr, wi)
			nr := float64(wr*0.6) - float64(wi*0.8)
			ni := float64(wr*0.8) + float64(wi*0.6)
			wr, wi = nr, ni
		}
	}
	for t := 0; t < threads; t++ {
		th := &refThread{a: make([]complex128, refVol), b: make([]complex128, refVol)}
		refSeed(th.a, uint64(t))
		k.threads = append(k.threads, th)
		if t == 0 {
			continue
		}
		ch := make(chan struct{})
		k.start = append(k.start, ch)
		go func() {
			for range ch {
				k.sweep(th)
				k.done <- struct{}{}
			}
		}()
	}
	return k
}

// refSeed fills a with the known start state (a 64-bit LCG mapped to
// [-1, 1)).
func refSeed(a []complex128, salt uint64) {
	x := 0x9e3779b97f4a7c15 ^ (salt * 0xbf58476d1ce4e5b9)
	next := func() float64 {
		x = x*6364136223846793005 + 1442695040888963407
		return float64(int64(x>>11))/float64(1<<52) - 1
	}
	for i := range a {
		a[i] = complex(next(), next())
	}
}

// run executes one kernel call on every thread and returns its wall time.
func (k *refKernel) run() time.Duration {
	t0 := time.Now()
	for _, ch := range k.start {
		ch <- struct{}{}
	}
	k.sweep(k.threads[0])
	for range k.start {
		<-k.done
	}
	return time.Since(t0)
}

// close stops the worker goroutines.
func (k *refKernel) close() {
	k.stop.Do(func() {
		for _, ch := range k.start {
			close(ch)
		}
	})
}

// sweep is the kernel body: five unitary radix-2 butterfly sweeps over
// every contiguous row, an out-of-place x↔z transpose, a copy back. The
// 1/√2 scaling keeps the 2-norm constant, so the values neither overflow
// nor decay into denormals however often the kernel runs. The explicit
// float64 conversions forbid fused multiply-add, which keeps the result
// bit-identical across architectures.
func (k *refKernel) sweep(th *refThread) {
	const r = math.Sqrt2 / 2
	a, b := th.a, th.b
	for s, h := range refHalf {
		tw := k.tw[s]
		for row := 0; row < refVol; row += refN {
			x := a[row : row+refN]
			for blk := 0; blk < refN; blk += 2 * h {
				for j := 0; j < h; j++ {
					u, v, w := x[blk+j], x[blk+j+h], tw[j]
					tr := float64(real(v)*real(w)) - float64(imag(v)*imag(w))
					ti := float64(real(v)*imag(w)) + float64(imag(v)*real(w))
					x[blk+j] = complex(float64((real(u)+tr)*r), float64((imag(u)+ti)*r))
					x[blk+j+h] = complex(float64((real(u)-tr)*r), float64((imag(u)-ti)*r))
				}
			}
		}
	}
	for x := 0; x < refN; x++ {
		for y := 0; y < refN; y++ {
			src := a[(x*refN+y)*refN : (x*refN+y+1)*refN]
			for z, v := range src {
				b[(z*refN+y)*refN+x] = v
			}
		}
	}
	copy(a, b)
}

// refSelfCheck runs the kernel once on the known input and compares the
// output hash with refChecksum.
func refSelfCheck() (got uint64, ok bool) {
	k := newRefKernel(1)
	defer k.close()
	k.run()
	h := uint64(0xcbf29ce484222325)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 0x100000001b3
			v >>= 8
		}
	}
	for _, c := range k.threads[0].a {
		mix(math.Float64bits(real(c)))
		mix(math.Float64bits(imag(c)))
	}
	return h, h == refChecksum
}
