package offt_test

import (
	"fmt"
	"testing"

	"offt"
	"offt/internal/fft"
	"offt/internal/layout"
	"offt/internal/mpi/mem"
	"offt/internal/pencil"
	"offt/internal/pfft"
)

// byHand runs one transform the way offt.Plan's data path is defined: every
// rank of a fresh mem world takes its piece of full with the layout (or
// pencil transfer) kernel, runs its per-rank plan, and the pieces are put
// back together with the inverse kernel. d supplies the resolved geometry
// and parameters of the public plan it is compared with.
func byHand(t *testing.T, d offt.PlanDescription, full []complex128, backward bool) []complex128 {
	t.Helper()
	nx, ny, nz, p := d.Nx, d.Ny, d.Nz, d.Ranks
	got := make([]complex128, len(full))
	slabs := make([][]complex128, p)
	errs := make([]error, p)
	err := mem.NewWorld(p).Run(func(c *mem.Comm) {
		r := c.Rank()
		if d.Decomp == offt.Pencil {
			g, err := pencil.NewGrid2D(nx, ny, nz, d.ProcRows, d.ProcCols(), r)
			if err != nil {
				errs[r] = err
				return
			}
			plan, err := pencil.NewPlan(c, g, d.Variant, pencil.FromParams(d.Params, g), fft.Estimate)
			if err != nil {
				errs[r] = err
				return
			}
			defer plan.Close()
			if backward {
				in := make([]complex128, g.OutSize())
				pencil.ScatterSpectrumInto(in, full, g)
				out, _, err := plan.Backward(in)
				errs[r] = err
				if err == nil {
					pencil.GatherInputInto(got, out, g) // disjoint rank regions
				}
				return
			}
			in := make([]complex128, g.InSize())
			pencil.ScatterPencilInto(in, full, g)
			out, _, err := plan.Forward(in)
			errs[r] = err
			if err == nil {
				pencil.GatherPencilInto(got, out, g)
			}
			return
		}
		g, err := layout.NewGrid(nx, ny, nz, p, r)
		if err != nil {
			errs[r] = err
			return
		}
		plan, err := pfft.NewPlan(c, g, d.Variant, d.Params, fft.Estimate)
		if err != nil {
			errs[r] = err
			return
		}
		defer plan.Close()
		var out []complex128
		if backward {
			out, _, err = plan.Backward(layout.ScatterY(full, g, plan.OutputFast()))
		} else {
			out, _, err = plan.Forward(layout.ScatterX(full, g))
		}
		errs[r] = err
		slabs[r] = append([]complex128(nil), out...)
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if d.Decomp == offt.Pencil {
		return got
	}
	if backward {
		return layout.GatherX(slabs, nx, ny, nz, p)
	}
	g0, _ := layout.NewGrid(nx, ny, nz, p, 0)
	return layout.GatherY(slabs, nx, ny, nz, p, pfft.OutputFast(d.Variant, g0))
}

// TestDataPathMatchesByHand pins what offt.Plan's ForwardInto and
// BackwardInto compute: bit for bit the composition scatter → per-rank
// plan → gather, whoever runs the scatter and the gather and whichever
// buffers the ranks work in. Recorded on the tree whose caller goroutine
// ran both; it must pass unedited on any tree that moves them.
func TestDataPathMatchesByHand(t *testing.T) {
	grids := []struct{ nx, ny, nz, ranks int }{
		{16, 16, 16, 2},
		{12, 10, 9, 3}, // ragged: 4/4/4 in x, 4/3/3 in y
		{8, 8, 6, 1},
	}
	for _, decomp := range []offt.Decomp{offt.Slab, offt.Pencil} {
		variants := []offt.Variant{offt.Baseline, offt.NEW, offt.NEW0}
		if decomp == offt.Slab {
			variants = append(variants, offt.TH) // forward only
		}
		for _, v := range variants {
			for _, g := range grids {
				name := fmt.Sprintf("%v/%v/%dx%dx%d-p%d", decomp, v, g.nx, g.ny, g.nz, g.ranks)
				t.Run(name, func(t *testing.T) {
					plan, err := offt.NewPlan(offt.WithGrid(g.nx, g.ny, g.nz), offt.WithRanks(g.ranks),
						offt.WithVariant(v), offt.WithDecomp(decomp))
					if err != nil {
						t.Fatal(err)
					}
					defer plan.Close()
					n := g.nx * g.ny * g.nz
					data := randData(n, 23)
					got := make([]complex128, n)
					for _, backward := range []bool{false, true} {
						if backward && v == offt.TH {
							continue
						}
						dir := "forward"
						if backward {
							dir = "backward"
							err = plan.BackwardInto(got, data)
						} else {
							err = plan.ForwardInto(got, data)
						}
						if err != nil {
							t.Fatalf("%s: %v", dir, err)
						}
						want := byHand(t, plan.Describe(), data, backward)
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("%s differs from the by-hand composition at %d: %v vs %v", dir, i, got[i], want[i])
							}
						}
					}
				})
			}
		}
	}
}
