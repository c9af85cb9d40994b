package thermal

import (
	"math"
	"runtime"
	"testing"
)

// stackMaps builds a uniform power split for every active layer of a stack.
func stackMaps(stack []LayerSpec, watts float64, nx, ny int) [][][]float64 {
	n := 0
	for _, l := range stack {
		if l.Active {
			n++
		}
	}
	maps := make([][][]float64, n)
	for i := range maps {
		maps[i] = uniformMap(watts/float64(n), nx, ny)
	}
	return maps
}

// TestSORMatchesReference pins the tolerance proof: at a tight tolerance the
// red-black SOR solver and the natural-order Gauss-Seidel reference agree on
// every active-layer node. Both iterate to the same fixed point — the
// stencil arithmetic is shared (nodeSum) and at convergence the SOR update
// ω·(gs−t) vanishes exactly when the Gauss-Seidel update does — so the only
// difference is how far inside Tol each stops.
func TestSORMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stack []LayerSpec
	}{
		{"2d", Stack2D()},
		{"m3d", StackM3D()},
		{"tsv3d", StackTSV3D()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultParams(2.9e-3, 2.3e-3)
			p.Tol = 1e-6 // tighten so both solvers sit hard on the fixed point
			maps := stackMaps(tc.stack, 6.4, p.Nx, p.Ny)
			sor, err := Solve(tc.stack, p, maps)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := SolveReference(tc.stack, p, maps)
			if err != nil {
				t.Fatal(err)
			}
			const tol = 0.01 // °C agreement across the whole field
			if d := math.Abs(sor.PeakC - ref.PeakC); d > tol {
				t.Errorf("peak disagrees by %.4f°C (SOR %.4f vs ref %.4f)", d, sor.PeakC, ref.PeakC)
			}
			if d := math.Abs(sor.AvgC - ref.AvgC); d > tol {
				t.Errorf("avg disagrees by %.4f°C", d)
			}
			for li := range ref.Layers {
				for y := range ref.Layers[li] {
					for x := range ref.Layers[li][y] {
						if d := math.Abs(sor.Layers[li][y][x] - ref.Layers[li][y][x]); d > tol {
							t.Fatalf("layer %d node (%d,%d) disagrees by %.4f°C", li, x, y, d)
						}
					}
				}
			}
		})
	}
}

// TestSORSweepReduction pins the performance claim from the issue: the tuned
// red-black SOR converges in at least 3× fewer sweeps than the reference
// solver at the same convergence criterion (in practice 12–15× at ω=1.9).
func TestSORSweepReduction(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stack []LayerSpec
	}{
		{"2d", Stack2D()},
		{"m3d", StackM3D()},
		{"tsv3d", StackTSV3D()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultParams(2.9e-3, 2.3e-3)
			maps := stackMaps(tc.stack, 6.4, p.Nx, p.Ny)
			sor, err := Solve(tc.stack, p, maps)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := SolveReference(tc.stack, p, maps)
			if err != nil {
				t.Fatal(err)
			}
			if sor.Iters == 0 || ref.Iters == 0 {
				t.Fatalf("solvers reported zero sweeps (sor %d, ref %d)", sor.Iters, ref.Iters)
			}
			if ratio := float64(ref.Iters) / float64(sor.Iters); ratio < 3 {
				t.Errorf("SOR must converge in ≥3× fewer sweeps, got %.1f× (%d vs %d)",
					ratio, sor.Iters, ref.Iters)
			}
		})
	}
}

// TestSolveScratchReuse pins the GC-churn fix: after a warmup solve has
// populated the pool, further solves of the same geometry allocate only the
// returned Result grids and small validation strings, not the internal
// temperature/power/conductance-sum slabs. The slabs for the 8-layer M3D
// stack are 3·nl·nx·ny float64 ≈ 77KB per solve; everything else is ~10KB,
// so a 30KB/solve ceiling cleanly separates reuse from re-allocation.
func TestSolveScratchReuse(t *testing.T) {
	p := DefaultParams(2.9e-3, 2.3e-3)
	stack := StackM3D()
	maps := stackMaps(stack, 6.4, p.Nx, p.Ny)
	solve := func() {
		if _, err := Solve(stack, p, maps); err != nil {
			t.Fatal(err)
		}
	}
	solve() // prime the pool

	const runs = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		solve()
	}
	runtime.ReadMemStats(&after)
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if perRun > 30_000 {
		t.Errorf("Solve allocates %.0f bytes/run, want ≤ 30000 (scratch slabs not reused?)", perRun)
	}
}
