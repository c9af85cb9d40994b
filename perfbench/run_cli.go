package main

import (
	"fmt"
	"runtime"
	"time"

	"vertical3d/internal/trace"
)

// runCLI runs paper-quick or fig6-sampled: set-up several times, then the
// passes. A traced run splits its passes into an untraced half and a
// traced half, and reports the difference as the tracing overhead.
func runCLI(w *cliWorkload, traced bool) (*outcome, error) {
	out := newOutcome()
	var tr *tracer
	if traced {
		tr = newTracer()
	}

	var setupS, deriveS, recordS []float64
	var s cliSetup
	for i := 0; i < setupRepeats; i++ {
		var err error
		if s, err = w.setup(tr); err != nil {
			return nil, err
		}
		setupS = append(setupS, s.total.Seconds())
		deriveS = append(deriveS, s.derive.Seconds())
		recordS = append(recordS, s.rec.Seconds())
	}
	missesAfterSetup := trace.CacheStats().Misses

	untraced, tracedN := w.passes, 0
	if traced {
		untraced = max(1, w.passes/2)
		tracedN = max(1, w.passes-untraced)
	}
	var plain, spanned []*passResult
	for i := 0; i < untraced+tracedN; i++ {
		ptr := tr
		if i < untraced {
			ptr = nil
		}
		p := w.pass(ptr, s)
		out.attempted += p.attempted
		out.failed += p.failed
		out.problems = append(out.problems, p.problems...)
		d, err := p.digest()
		out.attempted++
		switch {
		case err != nil:
			out.fail("%v", err)
		case out.digest == "":
			out.digest = d
		case d != out.digest:
			out.fail("pass %d digest %s differs from pass 1's %s", i+1, d, out.digest)
		}
		if i < untraced {
			plain = append(plain, p)
		} else {
			spanned = append(spanned, p)
		}
	}
	timedMisses := trace.CacheStats().Misses - missesAfterSetup
	out.check(timedMisses == 0, "the timed phase recorded %d new trace stream(s)", timedMisses)

	retained := heapInUse()
	peak, _, err := procMemMB(0)
	if err != nil {
		return nil, err
	}
	wall := func(ps []*passResult) float64 {
		return medianOf(ps, func(p *passResult) float64 { return p.wall.Seconds() })
	}

	out.samples["setup_s"] = setupS
	out.samples["pass_wall_s"] = seconds(plain, func(p *passResult) time.Duration { return p.wall })
	out.samples["pass_cpu_s"] = seconds(plain, func(p *passResult) time.Duration { return p.cpu })
	out.e2e["setup_s"] = median(setupS)
	out.e2e["wall_s"] = wall(plain)
	out.e2e["cpu_s"] = medianOf(plain, func(p *passResult) float64 { return p.cpu.Seconds() })
	out.e2e["peak_rss_mb"] = peak
	out.e2e["retained_mb"] = float64(retained) / (1 << 20)
	if !traced {
		return out, nil
	}

	L := out.layer
	L["config.derive_s"] = median(deriveS)
	L["trace.record_s"] = median(recordS)
	L["trace.streams"] = float64(len(s.recs))
	L["trace.minstr"] = float64(s.instrs) / 1e6
	L["trace.bytes_mb"] = float64(trace.CachedBytes()) / (1 << 20)
	L["trace.bytes_per_instr"] = s.heapPerInstr
	L["trace.timed_misses"] = float64(timedMisses)

	layerWall := func(layer string) float64 {
		return medianOf(spanned, func(p *passResult) float64 { return p.layerWall[layer] })
	}
	layerCPU := func(layer string) float64 {
		return medianOf(spanned, func(p *passResult) float64 { return p.layerCPU[layer] })
	}
	val := func(name string) float64 {
		return medianOf(spanned, func(p *passResult) float64 { return p.vals[name] })
	}
	procs := float64(runtime.GOMAXPROCS(0))
	util := func(cpu, wall float64) float64 {
		if wall == 0 {
			return 0
		}
		return cpu / (wall * procs)
	}
	mips := func(minstr, cpu float64) float64 {
		if cpu == 0 {
			return 0
		}
		return minstr / cpu
	}
	L["experiments.tables_s"] = layerWall(layerTables)
	L["lp.s"] = layerWall(layerLP)
	L["render.s"] = layerWall(layerRender)
	L["fig8.s"] = layerWall(layerFig8)
	for _, f := range []struct{ prefix, layer string }{{"fig6", layerFig6}, {"fig9", layerFig9}, {"fig6s", layerFig6s}} {
		wl, cpu := layerWall(f.layer), layerCPU(f.layer)
		L[f.prefix+".s"] = wl
		L[f.prefix+".cpu_s"] = cpu
		L[f.prefix+".pool_util"] = util(cpu, wl)
	}
	L["fig6.mips"] = mips(val("fig6.sim_minstr"), L["fig6.cpu_s"])
	L["fig9.mips"] = mips(val("fig9.sim_minstr"), L["fig9.cpu_s"])
	for _, name := range []string{
		"sram.model_hits", "sram.model_misses", "fig6.cells", "fig6.sim_minstr", "fig8.rows", "fig9.cells",
		"fig6s.cells", "fig6s.fallbacks", "warm.hits", "warm.misses", "warm.builds",
		"warm.built_minstr", "warm.skipped_minstr", "warm.restore_share",
	} {
		L[name] = val(name)
	}
	delete(L, "fig9.sim_minstr") // only an input to fig9.mips

	lanes := map[int]bool{}
	for _, p := range spanned {
		lanes[p.laneSpanID] = true
	}
	out.attribute(tr.snapshot(), lanes, "bench.pass", len(spanned))
	L["bench.trace_overhead_s"] = wall(spanned) - wall(plain)
	out.spans = tr
	return out, nil
}

// seconds lists f over the passes, in seconds.
func seconds(ps []*passResult, f func(*passResult) time.Duration) []float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p).Seconds()
	}
	return xs
}

// medianOf is the median of f over the passes.
func medianOf(ps []*passResult, f func(*passResult) float64) float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return median(xs)
}

// outcome is everything a run reports.
type outcome struct {
	attempted, failed int
	problems          []string
	digest            string
	e2e, layer        map[string]float64
	samples           map[string][]float64 // what the medians were taken over, for the run record
	spans             *tracer
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, samples: map[string][]float64{}}
}

// fail records a failed operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// check counts a self-check as an operation that fails unless ok.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.fail(format, args...)
	}
}

// attribute reports the layers' self time against the lanes' wall time:
// bench.self_s is the lanes' own (unattributed) time per lane, and the
// self-check requires the layers to account for at least 95% of it.
func (o *outcome) attribute(spans []span, lanes map[int]bool, laneLayer string, nLanes int) {
	byLayer, total := layerSelf(spans, lanes)
	if total <= 0 || nLanes == 0 {
		o.check(false, "traced run recorded no lanes")
		return
	}
	benchSelf := byLayer[laneLayer]
	frac := (total - benchSelf) / total
	o.layer["bench.self_s"] = benchSelf / float64(nLanes)
	o.layer["bench.attributed_frac"] = frac
	o.check(frac >= 0.95 && frac <= 1.0001, "layer self times cover %.1f%% of the traced wall time, want 95-100%%", frac*100)
}
