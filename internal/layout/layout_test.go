package layout

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDistCoversExactly(t *testing.T) {
	for _, c := range []struct{ n, p int }{{8, 2}, {8, 3}, {7, 3}, {100, 7}, {16, 16}, {17, 16}, {5, 1}} {
		d := Dist{N: c.n, P: c.p}
		covered := make([]int, c.n)
		total := 0
		prevEnd := 0
		for r := 0; r < c.p; r++ {
			s, cnt := d.Start(r), d.Count(r)
			if s != prevEnd {
				t.Errorf("n=%d p=%d: rank %d starts at %d, want %d", c.n, c.p, r, s, prevEnd)
			}
			prevEnd = s + cnt
			total += cnt
			for i := s; i < s+cnt; i++ {
				covered[i]++
			}
		}
		if total != c.n {
			t.Errorf("n=%d p=%d: counts sum to %d", c.n, c.p, total)
		}
		for i, k := range covered {
			if k != 1 {
				t.Errorf("n=%d p=%d: index %d covered %d times", c.n, c.p, i, k)
			}
		}
	}
}

func TestDistOwner(t *testing.T) {
	for _, c := range []struct{ n, p int }{{8, 3}, {100, 7}, {17, 16}, {64, 4}} {
		d := Dist{N: c.n, P: c.p}
		for i := 0; i < c.n; i++ {
			r := d.Owner(i)
			if i < d.Start(r) || i >= d.Start(r)+d.Count(r) {
				t.Errorf("n=%d p=%d: Owner(%d)=%d but range is [%d,%d)", c.n, c.p, i, r, d.Start(r), d.Start(r)+d.Count(r))
			}
		}
	}
}

func TestDistBalance(t *testing.T) {
	d := Dist{N: 17, P: 4}
	if d.MaxCount() != 5 {
		t.Errorf("MaxCount = %d, want 5", d.MaxCount())
	}
	// Counts differ by at most 1.
	min, max := d.N, 0
	for r := 0; r < d.P; r++ {
		if c := d.Count(r); c < min {
			min = c
		} else if c > max {
			max = c
		}
	}
	if max-min > 1 {
		t.Errorf("unbalanced distribution: min %d max %d", min, max)
	}
}

func TestNewGridValidation(t *testing.T) {
	for _, c := range []struct {
		nx, ny, nz, p, r int
		ok               bool
	}{
		{8, 8, 8, 2, 0, true},
		{8, 8, 8, 2, 1, true},
		{8, 8, 8, 2, 2, false},
		{8, 8, 8, 2, -1, false},
		{0, 8, 8, 2, 0, false},
		{8, 8, 8, 0, 0, false},
		{2, 8, 8, 4, 0, false}, // Nx < p
		{8, 2, 8, 4, 0, false}, // Ny < p
		{9, 10, 8, 4, 3, true}, // non-divisible
	} {
		_, err := NewGrid(c.nx, c.ny, c.nz, c.p, c.r)
		if (err == nil) != c.ok {
			t.Errorf("NewGrid(%d,%d,%d,%d,%d): err=%v, want ok=%v", c.nx, c.ny, c.nz, c.p, c.r, err, c.ok)
		}
	}
}

func TestTiling(t *testing.T) {
	tl, err := NewTiling(24, 7)
	if err != nil {
		t.Fatal(err)
	}
	if tl.NumTiles() != 4 {
		t.Errorf("NumTiles = %d, want 4", tl.NumTiles())
	}
	total := 0
	for i := 0; i < tl.NumTiles(); i++ {
		if tl.TileStart(i) != total {
			t.Errorf("tile %d starts at %d, want %d", i, tl.TileStart(i), total)
		}
		total += tl.TileLen(i)
	}
	if total != 24 {
		t.Errorf("tiles cover %d, want 24", total)
	}
	if tl.TileLen(3) != 3 {
		t.Errorf("last tile len %d, want 3", tl.TileLen(3))
	}
	if _, err := NewTiling(8, 0); err == nil {
		t.Error("expected error for T=0")
	}
	if _, err := NewTiling(8, 9); err == nil {
		t.Error("expected error for T>Nz")
	}
}

func TestSubTiles(t *testing.T) {
	var chunks [][2]int
	SubTiles(10, 4, func(lo, hi int) { chunks = append(chunks, [2]int{lo, hi}) })
	want := [][2]int{{0, 4}, {4, 8}, {8, 10}}
	if fmt.Sprint(chunks) != fmt.Sprint(want) {
		t.Errorf("SubTiles = %v, want %v", chunks, want)
	}
	if NumSubTiles(10, 4) != 3 {
		t.Errorf("NumSubTiles = %d", NumSubTiles(10, 4))
	}
	// step <= 0 means one chunk.
	chunks = nil
	SubTiles(5, 0, func(lo, hi int) { chunks = append(chunks, [2]int{lo, hi}) })
	if len(chunks) != 1 || chunks[0] != [2]int{0, 5} {
		t.Errorf("SubTiles step=0: %v", chunks)
	}
	if NumSubTiles(5, 0) != 1 {
		t.Errorf("NumSubTiles step=0 = %d", NumSubTiles(5, 0))
	}
}

func randSlab(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.Float64(), rng.Float64())
	}
	return v
}

func TestTransposeZXY(t *testing.T) {
	xc, ny, nz := 3, 5, 7
	src := randSlab(xc*ny*nz, 1)
	dst := make([]complex128, len(src))
	TransposeZXY(dst, src, xc, ny, nz)
	for lx := 0; lx < xc; lx++ {
		for y := 0; y < ny; y++ {
			for z := 0; z < nz; z++ {
				if dst[(z*xc+lx)*ny+y] != src[(lx*ny+y)*nz+z] {
					t.Fatalf("mismatch at x=%d y=%d z=%d", lx, y, z)
				}
			}
		}
	}
}

func TestTransposeBlockedLargerThanBlock(t *testing.T) {
	// Dimensions beyond one cache block exercise the blocked loops.
	xc, ny, nz := 2, transposeBlock+5, transposeBlock*2+3
	src := randSlab(xc*ny*nz, 3)
	dst := make([]complex128, len(src))
	TransposeZXY(dst, src, xc, ny, nz)
	for lx := 0; lx < xc; lx++ {
		for y := 0; y < ny; y++ {
			for z := 0; z < nz; z++ {
				if dst[(z*xc+lx)*ny+y] != src[(lx*ny+y)*nz+z] {
					t.Fatalf("ZXY mismatch at x=%d y=%d z=%d", lx, y, z)
				}
			}
		}
	}
}

// exchange simulates the all-to-all for one tile: it copies each rank's send
// blocks into the destination ranks' receive buffers.
func exchange(grids []Grid, sendbufs, recvbufs [][]complex128, ztl int) {
	p := len(grids)
	for src := 0; src < p; src++ {
		for dst := 0; dst < p; dst++ {
			g := grids[src]
			n := ztl * g.XC() * g.YD.Count(dst)
			from := sendbufs[src][g.SendBlockOff(ztl, dst):]
			to := recvbufs[dst][grids[dst].RecvBlockOff(ztl, src):]
			copy(to[:n], from[:n])
		}
	}
}

// runPipeline pushes a full array through scatter → transpose → tiled
// pack → exchange → tiled unpack → gather, with the given tile and sub-tile
// sizes, and returns the reassembled array. Since no arithmetic is applied,
// the result must equal the input exactly. fast runs each sub-tile the way
// the engines' worker pool does: split into single-rank PackSubtileRanks and
// UnpackSubtileRanks calls, issued in reverse rank order so no call relies
// on another rank's block having been written first.
func runPipeline(t *testing.T, full []complex128, nx, ny, nz, p, tileT, px, pz, uy, uz int, fast bool) []complex128 {
	t.Helper()
	grids := make([]Grid, p)
	work := make([][]complex128, p) // post-transpose slabs
	outs := make([][]complex128, p)
	for r := 0; r < p; r++ {
		g, err := NewGrid(nx, ny, nz, p, r)
		if err != nil {
			t.Fatal(err)
		}
		grids[r] = g
		slab := ScatterX(full, g)
		tr := make([]complex128, len(slab))
		TransposeZXY(tr, slab, g.XC(), ny, nz)
		work[r] = tr
		outs[r] = make([]complex128, g.OutSize())
	}
	tl, err := NewTiling(nz, tileT)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tl.NumTiles(); i++ {
		zt0, ztl := tl.TileStart(i), tl.TileLen(i)
		sendbufs := make([][]complex128, p)
		recvbufs := make([][]complex128, p)
		for r := 0; r < p; r++ {
			g := grids[r]
			sendbufs[r] = make([]complex128, g.SendBufLen(ztl))
			recvbufs[r] = make([]complex128, g.RecvBufLen(ztl))
			SubTiles(ztl, pz, func(zlo, zhi int) {
				SubTiles(g.XC(), px, func(xlo, xhi int) {
					if !fast {
						g.PackSubtile(sendbufs[r], work[r], zt0, ztl, xlo, xhi, zlo, zhi)
						return
					}
					for d := p - 1; d >= 0; d-- {
						g.PackSubtileRanks(sendbufs[r], work[r], zt0, ztl, xlo, xhi, zlo, zhi, d, d+1)
					}
				})
			})
		}
		exchange(grids, sendbufs, recvbufs, ztl)
		for r := 0; r < p; r++ {
			g := grids[r]
			SubTiles(ztl, uz, func(zlo, zhi int) {
				SubTiles(g.YC(), uy, func(ylo, yhi int) {
					if !fast {
						g.UnpackSubtile(outs[r], recvbufs[r], zt0, ztl, ylo, yhi, zlo, zhi)
						return
					}
					for s := p - 1; s >= 0; s-- {
						g.UnpackSubtileRanks(outs[r], recvbufs[r], zt0, ztl, ylo, yhi, zlo, zhi, s, s+1)
					}
				})
			})
		}
	}
	return GatherY(outs, nx, ny, nz, p)
}

func TestPackExchangeUnpackIsIdentity(t *testing.T) {
	// fast selects the worker pool's rank-split kernels (see runPipeline).
	cases := []struct {
		nx, ny, nz, p, tileT, px, pz, uy, uz int
		fast                                 bool
	}{
		{8, 8, 8, 2, 4, 2, 2, 2, 2, false},
		{8, 8, 8, 2, 4, 2, 2, 2, 2, true},
		{8, 8, 8, 4, 3, 1, 3, 4, 1, false},
		{16, 16, 12, 4, 5, 3, 2, 2, 4, false},
		{16, 16, 12, 4, 5, 3, 2, 2, 4, true},
		{9, 10, 7, 3, 7, 2, 3, 2, 2, false},  // non-divisible Nx, Ny
		{12, 12, 5, 5, 2, 4, 1, 1, 2, false}, // p does not divide Nz tiles evenly
		{6, 6, 6, 6, 6, 6, 6, 6, 6, false},   // single tile, single sub-tile
		{8, 8, 8, 1, 4, 2, 2, 2, 2, false},   // single rank
	}
	for _, c := range cases {
		name := fmt.Sprintf("%dx%dx%d-p%d-T%d-fast%v", c.nx, c.ny, c.nz, c.p, c.tileT, c.fast)
		t.Run(name, func(t *testing.T) {
			full := randSlab(c.nx*c.ny*c.nz, 77)
			got := runPipeline(t, full, c.nx, c.ny, c.nz, c.p, c.tileT, c.px, c.pz, c.uy, c.uz, c.fast)
			for i := range full {
				if got[i] != full[i] {
					t.Fatalf("element %d: got %v want %v", i, got[i], full[i])
				}
			}
		})
	}
}

func TestQuickPipelineIdentity(t *testing.T) {
	f := func(seed int64, a, b, c, pp, tt, px, pz, uy, uz uint8, fast bool) bool {
		dims := []int{4, 5, 6, 8, 9, 12}
		nx := dims[int(a)%len(dims)]
		ny := dims[int(b)%len(dims)]
		nz := dims[int(c)%len(dims)]
		p := 1 + int(pp)%min(nx, ny, 4)
		tileT := 1 + int(tt)%nz
		sub := func(v uint8, n int) int { return 1 + int(v)%n }
		full := randSlab(nx*ny*nz, seed)
		got := runPipeline(t, full, nx, ny, nz, p, tileT,
			sub(px, nx), sub(pz, tileT), sub(uy, ny), sub(uz, tileT), fast)
		for i := range full {
			if got[i] != full[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(99))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestScatterGatherXRoundtrip(t *testing.T) {
	nx, ny, nz, p := 9, 8, 5, 3
	full := randSlab(nx*ny*nz, 5)
	slabs := make([][]complex128, p)
	for r := 0; r < p; r++ {
		g, err := NewGrid(nx, ny, nz, p, r)
		if err != nil {
			t.Fatal(err)
		}
		slabs[r] = ScatterX(full, g)
	}
	got := GatherX(slabs, nx, ny, nz, p)
	for i := range full {
		if got[i] != full[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestScatterGatherYRoundtrip(t *testing.T) {
	nx, ny, nz, p := 8, 8, 6, 4
	full := randSlab(nx*ny*nz, 6)
	slabs := make([][]complex128, p)
	for r := 0; r < p; r++ {
		g, err := NewGrid(nx, ny, nz, p, r)
		if err != nil {
			t.Fatal(err)
		}
		slabs[r] = ScatterY(full, g)
	}
	got := GatherY(slabs, nx, ny, nz, p)
	for i := range full {
		if got[i] != full[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestSendRecvCountsConsistent(t *testing.T) {
	// What rank a sends to rank b must equal what rank b expects from rank a.
	nx, ny, nz, p := 10, 9, 8, 3
	ztl := 4
	counts := make([]int, p)
	send := make([][]int, p)
	recv := make([][]int, p)
	for r := 0; r < p; r++ {
		g, err := NewGrid(nx, ny, nz, p, r)
		if err != nil {
			t.Fatal(err)
		}
		g.SendCounts(ztl, counts)
		send[r] = append([]int(nil), counts...)
		g.RecvCounts(ztl, counts)
		recv[r] = append([]int(nil), counts...)
	}
	for a := 0; a < p; a++ {
		for b := 0; b < p; b++ {
			if send[a][b] != recv[b][a] {
				t.Errorf("send[%d][%d]=%d != recv[%d][%d]=%d", a, b, send[a][b], b, a, recv[b][a])
			}
		}
	}
}

func TestBufLens(t *testing.T) {
	g, err := NewGrid(8, 8, 8, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	ztl := 3
	counts := make([]int, 2)
	g.SendCounts(ztl, counts)
	if counts[0]+counts[1] != g.SendBufLen(ztl) {
		t.Errorf("send counts %v don't sum to SendBufLen %d", counts, g.SendBufLen(ztl))
	}
	g.RecvCounts(ztl, counts)
	if counts[0]+counts[1] != g.RecvBufLen(ztl) {
		t.Errorf("recv counts %v don't sum to RecvBufLen %d", counts, g.RecvBufLen(ztl))
	}
}
