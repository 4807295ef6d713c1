package pfft

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"offt/internal/mpi"
)

// op is one call the pipeline made: a tile function or a wait on the
// communicator. win lists the tiles in the Test window it was handed.
type op struct {
	kind string // front, post, wait, back
	tile int
	slot int // −1 for wait
	win  []int
}

// scriptComm is a communicator with no world and no data: a request is its
// tile index, every wait is logged, and the failAt-th soft-deadline wait
// (counting from 0; −1 = never) misses its deadline, which is what makes
// the pipeline downgrade.
type scriptComm struct {
	log    []op
	clock  int64
	waits  int
	failAt int
}

func (c *scriptComm) Rank() int  { return 0 }
func (c *scriptComm) Size() int  { return 1 }
func (c *scriptComm) Now() int64 { c.clock++; return c.clock }
func (c *scriptComm) Barrier()   {}
func (c *scriptComm) Alltoallv(send []complex128, sc []int, recv []complex128, rc []int) {
	panic("the pipeline must build its blocking exchange from post + wait")
}
func (c *scriptComm) Ialltoallv(send []complex128, sc []int, recv []complex128, rc []int) mpi.Request {
	panic("posting is the phase's job")
}
func (c *scriptComm) Test(reqs ...mpi.Request) bool { return false }
func (c *scriptComm) Wait(reqs ...mpi.Request) {
	c.log = append(c.log, op{kind: "wait", tile: reqs[0].(int), slot: -1})
}
func (c *scriptComm) WaitDeadline(reqs ...mpi.Request) error {
	c.Wait(reqs...)
	c.waits++
	if c.waits-1 == c.failAt {
		return errors.New("soft deadline missed")
	}
	return nil
}

// scriptPhase logs every tile function call on c.
func scriptPhase(c *scriptComm) *Phase {
	tiles := func(win []mpi.Request) (out []int) {
		for _, r := range win {
			out = append(out, r.(int))
		}
		return out
	}
	return &Phase{
		Front: func(i, slot int, win []mpi.Request) {
			c.log = append(c.log, op{"front", i, slot, tiles(win)})
		},
		Post: func(i, slot int) mpi.Request {
			c.log = append(c.log, op{"post", i, slot, nil})
			return i
		},
		Back: func(i, slot int, win []mpi.Request) {
			c.log = append(c.log, op{"back", i, slot, tiles(win)})
		},
	}
}

// algorithm1 is the paper's loop written out as the expected call list.
func algorithm1(k, w int) (want []op) {
	span := func(lo, hi int) (out []int) {
		for t := lo; t < hi; t++ {
			out = append(out, t)
		}
		return out
	}
	for i := 0; i < k+w; i++ {
		if i < k {
			want = append(want, op{"front", i, i % (w + 1), span(max(0, i-w), i)})
		}
		if j := i - w; j >= 0 {
			want = append(want, op{"wait", j, -1, nil})
		}
		if i < k {
			want = append(want, op{"post", i, i % (w + 1), nil})
		}
		if j := i - w; j >= 0 {
			want = append(want, op{"back", j, j % (w + 1), span(j+1, min(j+w+1, k))})
		}
	}
	return want
}

// TestPipelineOrder drives the one phase runner over every tile count,
// window and downgrade point and checks the schedule it produces.
func TestPipelineOrder(t *testing.T) {
	for k := 1; k <= 6; k++ {
		for w := 0; w <= 4; w++ {
			for failAt := -1; failAt < k && (w > 0 || failAt < 0); failAt++ {
				c := &scriptComm{failAt: failAt}
				pl := NewPipeline(c)
				pl.EnableTrace()
				pl.Begin(mpi.CommPairwise)
				pl.Run(k, w, scriptPhase(c))
				b := pl.End()
				name := fmt.Sprintf("k=%d w=%d failAt=%d", k, w, failAt)
				checkSchedule(t, name, c.log, k, w, failAt)
				checkAccounting(t, name, b, pl.Events(), k, w, failAt)
			}
		}
	}
}

func checkSchedule(t *testing.T, name string, log []op, k, w, failAt int) {
	t.Helper()
	// Up to the missed wait (all the way without one) the schedule is
	// Algorithm 1 exactly, Test windows and slots included.
	var want []op
	if w > 0 {
		want = algorithm1(k, w)
	}
	prefix := len(want)
	for n, o := range want {
		if o.kind == "wait" && o.tile == failAt {
			prefix = n + 1
		}
	}
	if len(log) < prefix || (prefix > 0 && !reflect.DeepEqual(log[:prefix], want[:prefix])) {
		t.Fatalf("%s: overlapped part is\n %v\nwant\n %v", name, log, want[:prefix])
	}
	// On every path: each tile function runs once per tile, posts go out in
	// tile order, a tile goes front → post → wait → back, and a slot is not
	// packed again before its previous tile was unpacked. Only the tile
	// whose soft-deadline wait was missed is waited for twice.
	at := map[string][]int{}
	for n, o := range log {
		at[o.kind] = append(at[o.kind], o.tile)
		if o.slot >= 0 && o.slot != o.tile%(w+1) {
			t.Errorf("%s: %v uses slot %d, want %d", name, o, o.slot, o.tile%(w+1))
		}
		if o.kind == "front" && o.tile > w {
			prev := op{kind: "back", tile: o.tile - w - 1}
			if !contains(log[:n], prev) {
				t.Errorf("%s: %v reuses its slot before tile %d was unpacked", name, o, prev.tile)
			}
		}
	}
	for _, kind := range []string{"front", "post", "wait", "back"} {
		var tiles []int
		for tile := 0; tile < k; tile++ {
			tiles = append(tiles, tile)
			if kind == "wait" && tile == failAt {
				tiles = append(tiles, tile)
			}
		}
		if !reflect.DeepEqual(at[kind], tiles) {
			t.Errorf("%s: %s called for tiles %v, want each of %v once, in order", name, kind, at[kind], tiles)
		}
	}
	for tile := 0; tile < k; tile++ {
		last := -1
		for _, kind := range []string{"front", "post", "wait", "back"} {
			n := index(log, op{kind: kind, tile: tile})
			if n < last {
				t.Errorf("%s: tile %d runs %s out of order in %v", name, tile, kind, log)
			}
			last = n
		}
	}
	// Off the overlapped path nothing overlaps: no Test window, and every
	// post is followed at once by its own wait.
	for n := prefix; n < len(log); n++ {
		if len(log[n].win) != 0 {
			t.Errorf("%s: %v has a Test window on the blocking path", name, log[n])
		}
		if log[n].kind == "post" && (n+1 == len(log) || log[n+1].kind != "wait" || log[n+1].tile != log[n].tile) {
			t.Errorf("%s: %v is not followed by its wait", name, log[n])
		}
	}
}

func checkAccounting(t *testing.T, name string, b Breakdown, events []StepEvent, k, w, failAt int) {
	t.Helper()
	count := map[string]int{}
	for _, e := range events {
		count[e.Name]++
	}
	wantDown := 0
	if failAt >= 0 {
		wantDown = 1
	}
	if int(b.Downgrades) != wantDown || count["Downgrade"] != wantDown {
		t.Errorf("%s: %d downgrades, %d Downgrade events, want %d", name, b.Downgrades, count["Downgrade"], wantDown)
	}
	// One collective per tile: posted ahead (Ialltoall, retired by a Wait,
	// two if the first missed its deadline) or blocking (one Alltoall
	// event, charged to Wait).
	if count["Ialltoall"]+count["Alltoall"] != k || count["Wait"] != count["Ialltoall"]+wantDown {
		t.Errorf("%s: events %v, want %d collectives and one Wait per Ialltoall", name, count, k)
	}
	if (w == 0) != (count["Ialltoall"] == 0 && b.Ialltoall == 0) || b.Wait == 0 {
		t.Errorf("%s: breakdown %+v with events %v", name, b, count)
	}
}

func index(log []op, o op) int {
	return slices.IndexFunc(log, func(l op) bool { return l.kind == o.kind && l.tile == o.tile })
}

func contains(log []op, o op) bool { return index(log, o) >= 0 }
