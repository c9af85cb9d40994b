package thermal

import (
	"math"
	"testing"
)

// hotspotMap is a fixed non-uniform power map: a smooth background plus a
// hot block in one corner quadrant, so lateral flow runs in every direction
// and no two rows of the field are equal.
func hotspotMap(watts float64, nx, ny int) [][]float64 {
	g := make([][]float64, ny)
	var sum float64
	for y := range g {
		g[y] = make([]float64, nx)
		for x := range g[y] {
			v := 1 + 0.1*float64((x*7+y*3)%11)
			if x < nx/3 && y >= ny/2 {
				v += 6
			}
			g[y][x] = v
			sum += v
		}
	}
	for y := range g {
		for x := range g[y] {
			g[y][x] *= watts / sum
		}
	}
	return g
}

// TestSolveGolden pins Solve's exact output bits on every Table-10 stack.
// The values were recorded from the reference implementation of the
// red-black sweep; any change to the stencil's summation order, its
// division, or the relaxation step moves at least one of them, so a
// rewrite of the sweep fails here rather than only as a changed figure.
func TestSolveGolden(t *testing.T) {
	for _, tc := range []struct {
		name      string
		stack     []LayerSpec
		peak, avg uint64
		iters     int
	}{
		{"2d", Stack2D(), 0x4053e52134c326da, 0x4050805d78fd734d, 168},
		{"m3d", StackM3D(), 0x40609c95a64aff05, 0x405896e7ebf2607d, 705},
		{"tsv3d", StackTSV3D(), 0x4062b72d1087ccc3, 0x405a957f6de2cfa9, 303},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultParams(2.9e-3, 2.3e-3)
			var maps [][][]float64
			for i, l := range tc.stack {
				if l.Active {
					// Different totals per active layer keep the layers apart.
					maps = append(maps, hotspotMap(3.2+0.7*float64(i), p.Nx, p.Ny))
				}
			}
			res, err := Solve(tc.stack, p, maps)
			if err != nil {
				t.Fatal(err)
			}
			peak, avg := math.Float64bits(res.PeakC), math.Float64bits(res.AvgC)
			if peak != tc.peak || avg != tc.avg || res.Iters != tc.iters {
				t.Errorf("got peak %#x (%v) avg %#x (%v) iters %d, want peak %#x avg %#x iters %d",
					peak, res.PeakC, avg, res.AvgC, res.Iters, tc.peak, tc.avg, tc.iters)
			}
		})
	}
}
