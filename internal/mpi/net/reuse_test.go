package net

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"offt/internal/mpi"
	"offt/internal/mpi/mem"
	"offt/internal/mpi/transport"
)

// reuseDeadline is the soft deadline of the reuse test's worlds; a rank
// that arrives late sleeps several of them, so its peers' WaitDeadline
// misses first.
const reuseDeadline = time.Millisecond

// reuseComm is what the reuse test drives on either engine.
type reuseComm interface {
	mpi.Comm
	mpi.ExchangeSetter
	mpi.DeadlineWaiter
}

// TestRequestReuse holds the per-rank free list Wait fills and Post
// empties: on a mem world and a loopback net world of four ranks, at least
// 1,000 pairwise and windowed collectives with random counts (zero blocks
// included), one to four in flight, waited in shuffled order — some first
// through a WaitDeadline that misses its soft deadline, which must leave
// them valid — must each fill its receive buffer exactly as a fresh
// request does, every block where the definition puts it, although no
// rank ever holds more than four distinct requests. A second Wait on a
// freed handle must panic and say so.
func TestRequestReuse(t *testing.T) {
	const p = 4
	opts := []transport.Option{transport.WithDeadline(reuseDeadline)}
	check := func(t *testing.T, results [][2]int) {
		misses := 0
		for r, res := range results {
			misses += res[0]
			if res[1] > 4 {
				t.Errorf("rank %d used %d distinct requests, want at most 4 (the most in flight)", r, res[1])
			}
		}
		if misses == 0 {
			t.Error("no WaitDeadline missed its soft deadline")
		}
	}
	t.Run("mem", func(t *testing.T) {
		results := make([][2]int, p)
		err := mem.NewWorld(p, opts...).Run(func(c *mem.Comm) {
			results[c.Rank()][0], results[c.Rank()][1] = exerciseReuse(t, c)
		})
		if err != nil {
			t.Fatal(err)
		}
		check(t, results)
	})
	t.Run("net", func(t *testing.T) {
		results := make([][2]int, p)
		checkErrs(t, launch(t, p, func(int) []transport.Option { return opts }, func(c *Comm) {
			results[c.Rank()][0], results[c.Rank()][1] = exerciseReuse(t, c)
		}))
		check(t, results)
	})
}

// exerciseReuse runs the reuse test's collectives on one rank and returns
// how many of its WaitDeadline calls missed and how many distinct request
// handles it was given.
func exerciseReuse(t *testing.T, c reuseComm) (misses, handles int) {
	const collectives = 1000
	p, rank := c.Size(), c.Rank()
	// Every rank draws the same program from shared: counts, schedules,
	// batch sizes, wait orders and late ranks are SPMD arguments.
	shared := rand.New(rand.NewSource(34))
	poison := complex(math.NaN(), math.NaN())
	seen := map[mpi.Request]bool{}
	type flight struct {
		req        mpi.Request
		recv, want []complex128
	}
	for n := 0; n < collectives; {
		batch := make([]flight, 1+shared.Intn(4))
		late := -1
		if shared.Intn(8) == 0 {
			late = shared.Intn(p)
		}
		if rank == late {
			time.Sleep(5 * reuseDeadline)
		}
		for i := range batch {
			ex := mpi.Exchange{}
			if shared.Intn(2) == 0 {
				ex = mpi.Exchange{Alg: mpi.CommWindowed, Window: 1 + shared.Intn(2)}
			}
			c.SetExchange(ex)
			sc, rc := make([]int, p), make([]int, p)
			var send, want []complex128
			for s := 0; s < p; s++ {
				for d := 0; d < p; d++ {
					cnt := 0
					if shared.Intn(4) != 0 {
						cnt = 1 + shared.Intn(6)
					}
					for k := 0; k < cnt; k++ {
						if s == rank {
							send = append(send, reuseElem(n, s, d, k))
						}
						if d == rank {
							want = append(want, reuseElem(n, s, d, k))
						}
					}
					if s == rank {
						sc[d] = cnt
					}
					if d == rank {
						rc[s] = cnt
					}
				}
			}
			recv := make([]complex128, len(want))
			for k := range recv {
				recv[k] = poison
			}
			req := c.Ialltoallv(send, sc, recv, rc)
			seen[req] = true
			batch[i] = flight{req, recv, want}
			n++
		}
		for _, i := range shared.Perm(len(batch)) {
			f := batch[i]
			if late >= 0 && c.WaitDeadline(f.req) != nil {
				misses++
			}
			c.Wait(f.req)
			for k := range f.want {
				if f.recv[k] != f.want[k] {
					t.Errorf("rank %d, collective before %d: recv[%d] = %v, want %v", rank, n, k, f.recv[k], f.want[k])
					return misses, len(seen)
				}
			}
		}
	}
	req := c.Ialltoallv(nil, make([]int, p), nil, make([]int, p))
	c.Wait(req)
	func() {
		defer func() {
			msg := fmt.Sprint(recover())
			if !strings.Contains(msg, "already freed") {
				t.Errorf("rank %d: second Wait on a freed handle: recovered %q, want a panic naming the misuse", rank, msg)
			}
		}()
		c.Wait(req)
	}()
	return misses, len(seen)
}

// reuseElem is element k of the block src sends dst in collective n.
func reuseElem(n, src, dst, k int) complex128 {
	return complex(float64(n*100+src*10+dst), float64(k)+0.5)
}
