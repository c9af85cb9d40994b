// Package thermal is the HotSpot substitute: a steady-state 3D resistive
// grid solver over the layer stacks of Table 10. It models lateral and
// vertical conduction through every material layer (bulk silicon, active
// layers, metal, inter-layer dielectric, TIM, heat spreader), with the heat
// sink above the stack and an adiabatic board side below, exactly the
// configuration of Figure 1.
package thermal

import (
	"fmt"
	"math"
	"sync"

	"vertical3d/internal/guard"
)

// LayerSpec is one material layer of the stack, listed bottom-up.
type LayerSpec struct {
	Name         string
	Thickness    float64 // meters
	Conductivity float64 // W/(m·K)
	Active       bool    // receives a power map
}

// Stack2D returns the single-die baseline stack (bottom-up).
func Stack2D() []LayerSpec {
	return []LayerSpec{
		{Name: "bulk-si", Thickness: 100e-6, Conductivity: 120},
		{Name: "active", Thickness: 1e-6, Conductivity: 120, Active: true},
		{Name: "metal", Thickness: 12e-6, Conductivity: 12},
		{Name: "tim", Thickness: 50e-6, Conductivity: 5},
		{Name: "ihs", Thickness: 1000e-6, Conductivity: 400},
	}
}

// StackM3D returns the two-layer monolithic stack of Table 10: the two
// active layers sit within ≈1µm of each other, separated by a 100nm ILD and
// a thin bottom metal layer, so vertical coupling is strong.
func StackM3D() []LayerSpec {
	return []LayerSpec{
		{Name: "bulk-si", Thickness: 100e-6, Conductivity: 120},
		{Name: "bottom-active", Thickness: 1e-6, Conductivity: 120, Active: true},
		{Name: "bottom-metal", Thickness: 1e-6, Conductivity: 12},
		{Name: "ild", Thickness: 0.1e-6, Conductivity: 1.5},
		{Name: "top-active", Thickness: 0.1e-6, Conductivity: 120, Active: true},
		{Name: "top-metal", Thickness: 12e-6, Conductivity: 12},
		{Name: "tim", Thickness: 50e-6, Conductivity: 5},
		{Name: "ihs", Thickness: 1000e-6, Conductivity: 400},
	}
}

// StackTSV3D returns the die-stacked alternative of Table 10: a 20µm
// die-to-die layer with poor conductivity separates the dies, and the
// bottom die (far from the sink) must push its heat through it.
func StackTSV3D() []LayerSpec {
	return []LayerSpec{
		{Name: "bulk-si", Thickness: 100e-6, Conductivity: 120},
		{Name: "bottom-active", Thickness: 1e-6, Conductivity: 120, Active: true},
		{Name: "bottom-metal", Thickness: 12e-6, Conductivity: 12},
		{Name: "d2d-ild", Thickness: 20e-6, Conductivity: 1.5},
		{Name: "top-si", Thickness: 20e-6, Conductivity: 120},
		{Name: "top-active", Thickness: 1e-6, Conductivity: 120, Active: true},
		{Name: "top-metal", Thickness: 12e-6, Conductivity: 12},
		{Name: "tim", Thickness: 50e-6, Conductivity: 5},
		{Name: "ihs", Thickness: 1000e-6, Conductivity: 400},
	}
}

// Params configures a solve.
type Params struct {
	ChipW, ChipH float64 // die dimensions in meters
	Nx, Ny       int     // grid resolution
	AmbientC     float64 // ambient temperature (°C)

	// SinkRUnit is the area-normalised thermal resistance from the top of
	// the stack into the heat-sink base (K·m²/W) — the density-sensitive
	// part of the package.
	SinkRUnit float64

	// SinkRAbs is the absolute heat-sink resistance to ambient (K/W). The
	// sink is much larger than the die, so this term responds to total
	// power, not power density — which is why a folded die at twice the
	// density but lower power barely warms up (Section 7.1.3).
	SinkRAbs float64

	MaxIters int
	Tol      float64

	// Omega is the over-relaxation factor for Solve's red-black SOR sweeps.
	// Zero selects DefaultOmega. Any value in (0,2) converges on this
	// symmetric positive-definite conductance system (1.0 degenerates to
	// plain Gauss-Seidel); the default is tuned to cut sweeps ≥3× vs the
	// natural-order reference at the same Tol (see thermal_test.go).
	Omega float64
}

// DefaultOmega is the tuned SOR factor. The grid is a 20×20×nl 7-point
// stencil whose Jacobi spectral radius sits near cos(π/20); the classic
// optimum 2/(1+√(1−ρ²)) lands near 1.73, but the strong vertical coupling
// of the thin stacks pushes the empirical optimum higher: sweeping ω over
// all three Table-10 stacks at the default tolerance gives 12–15× fewer
// sweeps at 1.9, with convergence degrading again past ~1.93.
const DefaultOmega = 1.9

// DefaultParams returns the calibrated solve parameters: a 45°C ambient and
// a sink resistance that puts the ~6.4W 2D baseline core near 75°C.
func DefaultParams(chipW, chipH float64) Params {
	return Params{
		ChipW: chipW, ChipH: chipH,
		Nx: 20, Ny: 20,
		AmbientC:  45,
		SinkRUnit: 0.9e-5,
		SinkRAbs:  2.2,
		MaxIters:  20000,
		Tol:       1e-4,
		Omega:     DefaultOmega,
	}
}

// Validate checks the solver configuration: positive die dimensions, a grid
// of at least 2x2 cells, finite ambient, positive sink resistances and a
// positive iteration budget. All violations are reported together as
// guard.Violations with per-field paths.
func (p Params) Validate() error {
	c := guard.New("thermal.Params")
	c.Positive("ChipW", p.ChipW)
	c.Positive("ChipH", p.ChipH)
	c.Check(p.Nx >= 2, "Nx", "grid must be at least 2 cells wide, got %d", p.Nx)
	c.Check(p.Ny >= 2, "Ny", "grid must be at least 2 cells tall, got %d", p.Ny)
	c.Finite("AmbientC", p.AmbientC)
	c.Positive("SinkRUnit", p.SinkRUnit)
	c.Positive("SinkRAbs", p.SinkRAbs)
	c.PositiveInt("MaxIters", p.MaxIters)
	c.Positive("Tol", p.Tol)
	c.Check(p.Omega >= 0 && p.Omega < 2, "Omega", "SOR factor must be in [0,2), got %v", p.Omega)
	return c.Err()
}

// validateStack checks every layer for a positive thickness and
// conductivity — a zero in either turns the grid conductances into NaN/Inf
// and corrupts the whole SOR solve.
func validateStack(stack []LayerSpec) error {
	c := guard.New("thermal.stack")
	c.Check(len(stack) >= 1, "layers", "stack must have at least one layer")
	for i, l := range stack {
		c.Positive(fmt.Sprintf("[%d:%s].Thickness", i, l.Name), l.Thickness)
		c.Positive(fmt.Sprintf("[%d:%s].Conductivity", i, l.Name), l.Conductivity)
	}
	return c.Err()
}

// validatePowerMaps checks that each active layer's map is exactly ny rows
// of nx finite, non-negative watts-per-cell entries.
func validatePowerMaps(powerMaps [][][]float64, nx, ny int) error {
	c := guard.New("thermal.powerMaps")
	for li, pm := range powerMaps {
		if len(pm) != ny {
			c.Violatef(fmt.Sprintf("[%d]", li), "power map has %d rows, grid is %d", len(pm), ny)
			continue
		}
		for y, row := range pm {
			if len(row) != nx {
				c.Violatef(fmt.Sprintf("[%d][%d]", li, y), "power map row has %d cells, grid is %d", len(row), nx)
				continue
			}
			for x, v := range row {
				if !guard.IsFinite(v) || v < 0 {
					c.Violatef(fmt.Sprintf("[%d][%d][%d]", li, y, x), "power must be finite and >= 0, got %v", v)
				}
			}
		}
	}
	return c.Err()
}

// Result is the solved temperature field.
type Result struct {
	PeakC float64
	AvgC  float64
	// Layers holds the temperature grid of each ACTIVE layer, bottom-up.
	Layers [][][]float64
	// Iters is the number of full-grid sweeps the solver ran before the
	// convergence criterion (maxDelta < Tol) was met, or MaxIters if it
	// never was.
	Iters int
}

// scratch is the per-solve working memory: flat temperature, power and
// conductance-sum slabs (node (l,y,x) lives at (l*ny+y)*nx+x) plus the
// conductance tables. Solves borrow one from a pool so thermal-bound sweeps
// stop allocating — and GC churning — ~3·nl·nx·ny floats per call.
type scratch struct {
	t, pw, gSum         []float64
	gLatX, gLatY, gVert []float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// grow reuses s when its capacity suffices, else allocates. Contents are
// unspecified; callers overwrite every element.
func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// problem is a validated, discretised solve instance shared by the
// red-black SOR solver and the natural-order reference.
type problem struct {
	stack  []LayerSpec
	p      Params
	nl     int
	nx, ny int
	gSink  float64
	totalP float64
	sc     *scratch
}

// buildProblem validates the inputs and assembles the conductance network
// and flat power/temperature slabs in pooled scratch memory.
func buildProblem(stack []LayerSpec, p Params, powerMaps [][][]float64) (*problem, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := validateStack(stack); err != nil {
		return nil, err
	}
	nActive := 0
	for _, l := range stack {
		if l.Active {
			nActive++
		}
	}
	if nActive != len(powerMaps) {
		return nil, fmt.Errorf("thermal: %d active layers but %d power maps", nActive, len(powerMaps))
	}
	if err := validatePowerMaps(powerMaps, p.Nx, p.Ny); err != nil {
		return nil, err
	}
	nl := len(stack)
	nx, ny := p.Nx, p.Ny
	dx := p.ChipW / float64(nx)
	dy := p.ChipH / float64(ny)
	cellA := dx * dy

	sc := scratchPool.Get().(*scratch)
	// Per-layer lateral conductances and per-interface vertical conductances.
	sc.gLatX = grow(sc.gLatX, nl)
	sc.gLatY = grow(sc.gLatY, nl)
	for i, l := range stack {
		sc.gLatX[i] = l.Conductivity * l.Thickness * dy / dx
		sc.gLatY[i] = l.Conductivity * l.Thickness * dx / dy
	}
	sc.gVert = grow(sc.gVert, nl-1) // between layer i and i+1
	for i := 0; i < nl-1; i++ {
		r := 0.5*stack[i].Thickness/stack[i].Conductivity +
			0.5*stack[i+1].Thickness/stack[i+1].Conductivity
		sc.gVert[i] = cellA / r
	}

	// Power per node, and the ambient-initialised temperature field.
	sc.pw = grow(sc.pw, nl*nx*ny)
	for i := range sc.pw {
		sc.pw[i] = 0
	}
	var totalP float64
	ai := 0
	for i, l := range stack {
		if !l.Active {
			continue
		}
		pm := powerMaps[ai]
		ai++
		base := i * ny * nx
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				sc.pw[base+y*nx+x] = pm[y][x]
				totalP += pm[y][x]
			}
		}
	}
	sc.t = grow(sc.t, nl*nx*ny)
	for i := range sc.t {
		sc.t[i] = p.AmbientC
	}

	pr := &problem{
		stack: stack, p: p,
		nl: nl, nx: nx, ny: ny,
		gSink:  cellA / p.SinkRUnit, // top layer to ambient
		totalP: totalP,
		sc:     sc,
	}
	// A node's conductance sum depends only on the geometry, so it is summed
	// once here rather than on every sweep — in nodeSum's neighbour order,
	// which keeps every Gauss-Seidel value bit-identical to summing it inline.
	sc.gSum = grow(sc.gSum, nl*nx*ny)
	j := 0
	for l := 0; l < nl; l++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				var g float64
				if x > 0 {
					g += sc.gLatX[l]
				}
				if x < nx-1 {
					g += sc.gLatX[l]
				}
				if y > 0 {
					g += sc.gLatY[l]
				}
				if y < ny-1 {
					g += sc.gLatY[l]
				}
				if l > 0 {
					g += sc.gVert[l-1]
				}
				if l < nl-1 {
					g += sc.gVert[l]
				} else {
					g += pr.gSink
				}
				sc.gSum[j] = g
				j++
			}
		}
	}
	return pr, nil
}

// release returns the scratch memory to the pool.
func (pr *problem) release() {
	scratchPool.Put(pr.sc)
	pr.sc = nil
}

// nodeSum accumulates the conductance-weighted neighbour temperature sum
// for node (l,y,x) at flat index j, in the order x−1, x+1, y−1, y+1, l−1,
// then l+1 or the sink. It is the stencil arithmetic both solvers share, so
// their fixed point is identical by construction; Solve's interior fast
// path repeats the same order term for term.
func (pr *problem) nodeSum(l, y, x, j int) (tSum float64) {
	sc := pr.sc
	t := sc.t
	if x > 0 {
		tSum += sc.gLatX[l] * t[j-1]
	}
	if x < pr.nx-1 {
		tSum += sc.gLatX[l] * t[j+1]
	}
	if y > 0 {
		tSum += sc.gLatY[l] * t[j-pr.nx]
	}
	if y < pr.ny-1 {
		tSum += sc.gLatY[l] * t[j+pr.nx]
	}
	plane := pr.nx * pr.ny
	if l > 0 {
		tSum += sc.gVert[l-1] * t[j-plane]
	}
	if l < pr.nl-1 {
		tSum += sc.gVert[l] * t[j+plane]
	} else {
		tSum += pr.gSink * pr.p.AmbientC
	}
	return tSum
}

// result extracts the active-layer grids, applies the lumped-sink offset
// and finite-checks the field. Must run before release.
func (pr *problem) result(iters int) (Result, error) {
	// The lumped heat sink raises the whole die by P_total * SinkRAbs.
	offset := pr.totalP * pr.p.SinkRAbs

	res := Result{Iters: iters}
	var sum float64
	var cnt int
	for i, l := range pr.stack {
		if !l.Active {
			continue
		}
		base := i * pr.ny * pr.nx
		grid := make([][]float64, pr.ny)
		for y := 0; y < pr.ny; y++ {
			grid[y] = make([]float64, pr.nx)
			for x := 0; x < pr.nx; x++ {
				v := pr.sc.t[base+y*pr.nx+x] + offset
				grid[y][x] = v
				if v > res.PeakC {
					res.PeakC = v
				}
				sum += v
				cnt++
			}
		}
		res.Layers = append(res.Layers, grid)
	}
	if cnt > 0 {
		res.AvgC = sum / float64(cnt)
	}
	out := guard.New("thermal.Result")
	out.Finite("PeakC", res.PeakC)
	out.Finite("AvgC", res.AvgC)
	if err := out.Err(); err != nil {
		return Result{}, fmt.Errorf("thermal: solve diverged: %w", err)
	}
	return res, nil
}

// Solve computes the steady-state temperature field. powerMaps supplies one
// nx×ny watts-per-cell map per active layer, bottom-up.
//
// The iteration is red-black successive over-relaxation: nodes are
// two-coloured by the parity of x+y+l — every neighbour of a node has the
// opposite colour under the 7-point stencil — and each sweep updates all
// red nodes, then all black, each by t += ω·(gs−t) where gs is the plain
// Gauss-Seidel value. The convergence criterion is unchanged from the
// reference solver (max |update| < Tol), and for 0 < ω < 2 SOR converges on
// this symmetric positive-definite system (Ostrowski), to the same unique
// fixed point: at convergence the update is zero, so t equals the
// Gauss-Seidel value at every node regardless of ω or sweep order.
// SolveReference keeps the natural-order ω=1 solver for the equivalence
// tests, which pin agreement within tolerance and the ≥3× sweep reduction.
func Solve(stack []LayerSpec, p Params, powerMaps [][][]float64) (Result, error) {
	pr, err := buildProblem(stack, p, powerMaps)
	if err != nil {
		return Result{}, err
	}
	defer pr.release()
	omega := p.Omega
	if omega == 0 {
		omega = DefaultOmega
	}
	sc := pr.sc
	t, pw, gSum := sc.t, sc.pw, sc.gSum
	nl, nx, ny := pr.nl, pr.nx, pr.ny
	plane := nx * ny
	iters := 0
	for iter := 0; iter < p.MaxIters; iter++ {
		var maxDelta float64
		relax := func(j int, tSum float64) {
			gs := (tSum + pw[j]) / gSum[j]
			nt := t[j] + omega*(gs-t[j])
			if d := math.Abs(nt - t[j]); d > maxDelta {
				maxDelta = d
			}
			t[j] = nt
		}
		for color := 0; color <= 1; color++ {
			for l := 0; l < nl; l++ {
				base := l * plane
				gx, gy := sc.gLatX[l], sc.gLatY[l]
				for y := 0; y < ny; y++ {
					row := base + y*nx
					x := (color + l + y) & 1
					if l == 0 || l == nl-1 || y == 0 || y == ny-1 {
						for ; x < nx; x += 2 {
							relax(row+x, pr.nodeSum(l, y, x, row+x))
						}
						continue
					}
					// Interior rows: only the first and last node of the row
					// lack a neighbour. The rest take nodeSum's terms in
					// nodeSum's order, without its per-neighbour tests.
					gDown, gUp := sc.gVert[l-1], sc.gVert[l]
					if x == 0 {
						relax(row, pr.nodeSum(l, y, 0, row))
						x = 2
					}
					for ; x < nx-1; x += 2 {
						j := row + x
						tSum := gx * t[j-1]
						tSum += gx * t[j+1]
						tSum += gy * t[j-nx]
						tSum += gy * t[j+nx]
						tSum += gDown * t[j-plane]
						tSum += gUp * t[j+plane]
						relax(j, tSum)
					}
					if x == nx-1 {
						relax(row+x, pr.nodeSum(l, y, x, row+x))
					}
				}
			}
		}
		iters = iter + 1
		if maxDelta < p.Tol {
			break
		}
	}
	return pr.result(iters)
}

// SolveReference is the original natural-order Gauss-Seidel solver, kept as
// the ground truth the red-black SOR path is tested against. Identical
// stencil arithmetic (nodeSum), identical convergence criterion; only the
// sweep order and relaxation factor differ.
func SolveReference(stack []LayerSpec, p Params, powerMaps [][][]float64) (Result, error) {
	pr, err := buildProblem(stack, p, powerMaps)
	if err != nil {
		return Result{}, err
	}
	defer pr.release()
	t := pr.sc.t
	iters := 0
	for iter := 0; iter < p.MaxIters; iter++ {
		var maxDelta float64
		for l := 0; l < pr.nl; l++ {
			base := l * pr.ny * pr.nx
			for y := 0; y < pr.ny; y++ {
				row := base + y*pr.nx
				for x := 0; x < pr.nx; x++ {
					j := row + x
					nt := (pr.nodeSum(l, y, x, j) + pr.sc.pw[j]) / pr.sc.gSum[j]
					if d := math.Abs(nt - t[j]); d > maxDelta {
						maxDelta = d
					}
					t[j] = nt
				}
			}
		}
		iters = iter + 1
		if maxDelta < p.Tol {
			break
		}
	}
	return pr.result(iters)
}

// TotalPower sums a power map (helper for tests and reports).
func TotalPower(pm [][]float64) float64 {
	var s float64
	for _, row := range pm {
		for _, v := range row {
			s += v
		}
	}
	return s
}
