package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"vertical3d/internal/accel"
	"vertical3d/internal/clocktree"
	"vertical3d/internal/config"
	"vertical3d/internal/core"
	"vertical3d/internal/experiments"
	"vertical3d/internal/floorplan"
	"vertical3d/internal/multicore"
	"vertical3d/internal/pdn"
	"vertical3d/internal/sram"
	"vertical3d/internal/tech"
	"vertical3d/internal/trace"
	"vertical3d/internal/warm"
	"vertical3d/internal/workload"
)

// Layer names of the in-process workloads' spans.
const (
	layerTables = "experiments.tables"
	layerLP     = "experiments.lp"
	layerFig6   = "experiments.fig6"
	layerFig6s  = "experiments.fig6s"
	layerFig8   = "experiments.fig8"
	layerFig9   = "experiments.fig9"
	layerRender = "experiments.render"
)

// setupRepeats is how many times a run sets up; setup_s is their median.
const setupRepeats = 5

// lpBenchmarks is the LP study's subset, as m3dcli runs it.
var lpBenchmarks = []string{"Gamess", "Mcf", "Povray", "Milc"}

// cliWorkload replays a sweep command in-process, calling the experiments
// entry points the command calls, in its order, and discarding the
// rendered output. Each pass starts from the state a fresh process has
// after set-up: recordings in memory, warm snapshots dropped.
//
// The simulation seed is the command's own (m3dcli has no seed flag), so
// every workload seed computes the same results. The workload seed orders
// the profiles each sweep hands its worker pool: a different input order,
// the same cells.
type cliWorkload struct {
	sampled bool // fig6-sampled (m3dcli -sample fig6); else paper-quick (m3dcli -quick all)
	opt     experiments.RunOptions
	mopt    multicore.Options
	passes  int
	fig6    []trace.Profile // the Fig 6 sweep's profiles, in the seed's order
	fig9    []trace.Profile // the Fig 9 sweep's profiles, in the seed's order
}

// shuffled returns ps in the order the seed's generator picks.
func shuffled(ps []trace.Profile, rng *rand.Rand) []trace.Profile {
	out := append([]trace.Profile(nil), ps...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func newCLIWorkload(sampled bool, seed int64, seconds int) *cliWorkload {
	rng := rand.New(rand.NewSource(seed))
	w := &cliWorkload{sampled: sampled, fig6: shuffled(workload.SPEC2006(), rng), fig9: shuffled(workload.Parallel(), rng)}
	if sampled {
		// Default sizing, as `m3dcli -sample fig6` runs it.
		w.opt = experiments.DefaultRunOptions()
		w.opt.Sample = true
		w.opt.WarmCache = true
		w.passes = passesFor(seconds, 1.5)
	} else {
		w.opt = experiments.QuickRunOptions()
		w.mopt = multicore.DefaultOptions()
		w.mopt.TotalInstrs, w.mopt.WarmupPerCore = 80_000, 5_000
		w.mopt.KeepGoing = true
		w.passes = passesFor(seconds, 6)
	}
	w.opt.KeepGoing = true
	return w
}

// passesFor is how many passes of about passSeconds each (their length on
// a 2-core host) fill the timed phase.
func passesFor(seconds int, passSeconds float64) int {
	return max(1, int(math.Round(float64(seconds)/passSeconds)))
}

// cliSetup is what set-up leaves for the passes.
type cliSetup struct {
	suite              *config.Suite
	recs               []*trace.Recording
	total, derive, rec time.Duration
	instrs             int     // instructions recorded
	heapPerInstr       float64 // heap the recordings took, per instruction
}

// streamKey is one recording a pass replays.
type streamKey struct {
	prof   trace.Profile
	stream int
}

// streams lists every recording a pass replays with the largest size hint
// any of its cells asks for, in a fixed order.
func (w *cliWorkload) streams(suite *config.Suite) ([]streamKey, map[streamKey]int, error) {
	var keys []streamKey
	hints := map[streamKey]int{}
	add := func(k streamKey, hint uint64) {
		if _, ok := hints[k]; !ok {
			keys = append(keys, k)
		}
		hints[k] = max(hints[k], int(min(hint, 1<<30)))
	}
	single := workload.SPEC2006()
	if !w.sampled {
		for _, name := range lpBenchmarks {
			p, err := workload.ByName(name)
			if err != nil {
				return nil, nil, err
			}
			single = append(single, p)
		}
	}
	for _, p := range single {
		add(streamKey{p, w.opt.StreamID}, w.opt.Warmup+w.opt.Measure)
	}
	if w.sampled {
		return keys, hints, nil
	}
	// Fig9: core i of a c-core design replays stream StreamBase+i, sized
	// for its share of the work (plus the serial part on core 0).
	mcs := config.DeriveMulticore(suite)
	for _, p := range workload.Parallel() {
		for _, d := range config.MulticoreDesigns() {
			cores := mcs[d].Cores
			for i := 0; i < cores; i++ {
				hint := w.mopt.WarmupPerCore + w.mopt.TotalInstrs/uint64(cores)
				if i == 0 {
					hint += uint64(float64(w.mopt.TotalInstrs) * p.SerialFrac)
				}
				add(streamKey{p, w.mopt.StreamBase + i}, hint)
			}
		}
	}
	return keys, hints, nil
}

// setup derives the design suite and records every stream the passes
// replay, from cold caches, as a fresh process would.
func (w *cliWorkload) setup(tr *tracer) (cliSetup, error) {
	trace.ResetCache()
	sram.ResetModelCache()
	warm.ResetCache()
	heap0 := heapInUse()

	lane, end := tr.lane("bench.setup", "")
	var s cliSetup
	var err error
	start := time.Now()
	s.derive = tr.call(lane, "config", "derive", func() { s.suite, err = config.Derive(tech.N22()) })
	if err != nil {
		end()
		return s, fmt.Errorf("config.Derive: %w", err)
	}
	keys, hints, err := w.streams(s.suite)
	if err != nil {
		end()
		return s, err
	}
	s.rec = tr.call(lane, "trace", "record", func() {
		for _, k := range keys {
			s.recs = append(s.recs, trace.SharedRecording(k.prof, w.opt.Seed, k.stream, hints[k]))
		}
	})
	s.total = time.Since(start)
	end()
	for _, r := range s.recs {
		s.instrs += r.Len()
	}
	if s.instrs > 0 {
		s.heapPerInstr = float64(heapInUse()-heap0) / float64(s.instrs)
	}
	return s, nil
}

// heapInUse is the heap in use after a full collection, in bytes.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// passResult is one pass's measurements.
type passResult struct {
	wall, cpu  time.Duration
	attempted  int
	failed     int
	problems   []string
	results    []namedResult // what the digest covers
	layerWall  map[string]float64
	layerCPU   map[string]float64
	vals       map[string]float64 // per-layer counts
	laneSpanID int
}

type namedResult struct {
	name string
	v    any
}

// digest hashes the canonical JSON of every result of the pass.
func (p *passResult) digest() (string, error) {
	h := sha256.New()
	for _, r := range p.results {
		raw, err := json.Marshal(r.v)
		if err != nil {
			return "", fmt.Errorf("digest %s: %w", r.name, err)
		}
		fmt.Fprintf(h, "%s\n%s\n", r.name, raw)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// do runs one call into a layer: timed, traced and counted as an
// operation.
func (p *passResult) do(tr *tracer, layer, op string, fn func() error) {
	p.attempted++
	start, c0 := time.Now(), cpuTime()
	err := fn()
	end := time.Now()
	p.layerWall[layer] += end.Sub(start).Seconds()
	p.layerCPU[layer] += (cpuTime() - c0).Seconds()
	tr.record(p.laneSpanID, layer, op, "", start, end)
	if err != nil {
		p.failed++
		p.problems = append(p.problems, fmt.Sprintf("%s: %v", op, err))
	}
}

// pass runs the workload once.
func (w *cliWorkload) pass(tr *tracer, s cliSetup) *passResult {
	p := &passResult{layerWall: map[string]float64{}, layerCPU: map[string]float64{}, vals: map[string]float64{}}
	var builds atomic.Int64
	if w.sampled {
		warm.ResetCache() // a fresh process builds its warm ladders
		warm.SetBuildHook(func(warm.Identity, uint64, uint64) { builds.Add(1) })
		defer warm.SetBuildHook(nil)
	}
	sram0, warm0 := sram.CacheStats(), warm.Stats()
	runtime.GC()

	lane, end := tr.lane("bench.pass", "")
	p.laneSpanID = lane
	start, c0 := time.Now(), cpuTime()
	if w.sampled {
		w.sampledPass(tr, p, s)
	} else {
		w.quickPass(tr, p, s)
	}
	p.wall, p.cpu = time.Since(start), cpuTime()-c0
	end()

	sram1, warm1 := sram.CacheStats(), warm.Stats()
	p.vals["sram.model_hits"] = float64(sram1.Hits - sram0.Hits)
	p.vals["sram.model_misses"] = float64(sram1.Misses - sram0.Misses)
	if w.sampled {
		hits, misses := warm1.Hits-warm0.Hits, warm1.Misses-warm0.Misses
		p.vals["warm.hits"] = float64(hits)
		p.vals["warm.misses"] = float64(misses)
		p.vals["warm.builds"] = float64(builds.Load())
		p.vals["warm.built_minstr"] = float64(warm1.BuiltInstrs-warm0.BuiltInstrs) / 1e6
		p.vals["warm.skipped_minstr"] = float64(warm1.SkippedInstrs-warm0.SkippedInstrs) / 1e6
		if hits+misses > 0 {
			p.vals["warm.restore_share"] = float64(hits) / float64(hits+misses)
		}
	}
	return p
}

// sampledPass is `m3dcli -sample fig6`.
func (w *cliWorkload) sampledPass(tr *tracer, p *passResult, s cliSetup) {
	var f *experiments.Fig6Result
	p.do(tr, layerFig6s, "fig6", func() (err error) {
		f, err = experiments.Fig6With(s.suite, w.fig6, w.opt)
		return err
	})
	if f == nil {
		return
	}
	cells := len(f.Benchmarks) * len(f.Designs)
	p.attempted += cells
	p.failed += f.FailedCells()
	p.vals["fig6s.cells"] = float64(cells)
	fallbacks := 0
	for _, ev := range f.Health.Events {
		if ev.Layer == "sample" {
			fallbacks++
		}
	}
	p.vals["fig6s.fallbacks"] = float64(fallbacks)
	p.do(tr, layerRender, "fig6", func() error { experiments.RenderFig6(io.Discard, f); return nil })
	p.results = append(p.results, namedResult{"fig6s", fig6Digest(f)})
}

// fig6Digest is the part of a Fig 6 result the simulation determines.
func fig6Digest(f *experiments.Fig6Result) any {
	return struct {
		Runs, Speedup, NormEnergy any
		Failed                    int
	}{f.Runs, f.Speedup, f.NormEnergy, f.FailedCells()}
}

// quickPass is `m3dcli -quick all`, in its order.
func (w *cliWorkload) quickPass(tr *tracer, p *passResult, s cliSetup) {
	ctx := context.Background()
	keep := func(name string, v any) { p.results = append(p.results, namedResult{name, v}) }
	table := func(op string, fn func() error) { p.do(tr, layerTables, op, fn) }

	table("table1", func() error { experiments.RenderTable1(io.Discard); return nil })
	table("table2", func() error { experiments.RenderTable2(io.Discard); return nil })
	table("fig2", func() error { experiments.RenderFig2(io.Discard); keep("fig2", experiments.Fig2()); return nil })
	for i, st := range []sram.Strategy{sram.BitPart, sram.WordPart, sram.PortPart} {
		table(fmt.Sprintf("table%d", 3+i), func() error {
			rows, h, err := experiments.StrategyTableHealth(ctx, st, "")
			experiments.RenderPartitionTable(io.Discard, rows)
			experiments.RenderHealth(io.Discard, h)
			keep(fmt.Sprintf("table%d", 3+i), rows)
			return err
		})
	}
	table("table6", func() error {
		m3d, tsv, h, err := experiments.Table6Health(ctx, "")
		experiments.RenderHealth(io.Discard, h)
		experiments.RenderChoices(io.Discard, m3d, core.PaperTable6M3D)
		experiments.RenderChoices(io.Discard, tsv, core.PaperTable6TSV)
		keep("table6", []any{m3d, tsv})
		return err
	})
	table("table7", func() error { keep("table7", experiments.Table7()); return nil })
	table("table8", func() error {
		het, err := experiments.Table8()
		experiments.RenderChoices(io.Discard, het, core.PaperTable8)
		keep("table8", het)
		return err
	})
	table("logic", func() error {
		r, err := experiments.LogicStage()
		experiments.RenderLogic(io.Discard, r)
		keep("logic", r)
		return err
	})
	p.do(tr, layerLP, "lp", func() error {
		r, err := experiments.LPStudy(lpBenchmarks, w.opt)
		if err != nil {
			return err
		}
		experiments.RenderLPStudy(io.Discard, r)
		experiments.RenderHealth(io.Discard, r.Health)
		p.attempted += len(r.Benchmarks) * 3 // Base, M3D-Het, M3D-Het-LP per benchmark
		keep("lp", []any{r.HetEnergy, r.LPEnergy, r.ExtraSavingPP})
		return nil
	})
	table("infra", renderInfra)
	table("accel", renderAccel)
	table("table10", func() error { experiments.RenderTable10(io.Discard); return nil })
	table("table11", func() error {
		st, err := experiments.Table11()
		if err == nil {
			experiments.RenderTable11(io.Discard, st)
		}
		return err
	})

	var f6 *experiments.Fig6Result
	p.do(tr, layerFig6, "fig6", func() (err error) {
		f6, err = experiments.Fig6With(s.suite, w.fig6, w.opt)
		return err
	})
	if f6 != nil {
		cells := len(f6.Benchmarks) * len(f6.Designs)
		p.attempted += cells
		p.failed += f6.FailedCells()
		var instrs uint64
		for _, byDesign := range f6.Runs {
			for _, r := range byDesign {
				instrs += r.Stats.Instrs + w.opt.Warmup
			}
		}
		p.vals["fig6.cells"] = float64(cells)
		p.vals["fig6.sim_minstr"] = float64(instrs) / 1e6
		keep("fig6", fig6Digest(f6))
		p.do(tr, layerRender, "fig6", func() error { experiments.RenderFig6(io.Discard, f6); return nil })
		p.do(tr, layerRender, "fig7", func() error { experiments.RenderFig7(io.Discard, f6); return nil })
		p.do(tr, layerFig8, "fig8", func() error {
			rows, h, err := experiments.Fig8Health(f6)
			experiments.RenderFig8(io.Discard, rows)
			experiments.RenderHealth(io.Discard, h)
			p.vals["fig8.rows"] = float64(len(rows))
			// Rows follow the sweep's profile order; the digest must not.
			sorted := append([]experiments.Fig8Row(nil), rows...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i].Benchmark < sorted[j].Benchmark })
			keep("fig8", sorted)
			return err
		})
	}

	var f9 *experiments.Fig9Result
	p.do(tr, layerFig9, "fig9", func() (err error) {
		f9, err = experiments.Fig9With(s.suite, w.fig9, w.mopt)
		return err
	})
	if f9 != nil {
		cells := len(f9.Benchmarks) * len(f9.Designs)
		p.attempted += cells
		p.failed += f9.FailedCells()
		mcs := config.DeriveMulticore(s.suite)
		var instrs uint64
		for _, byDesign := range f9.Runs {
			for d := range byDesign {
				instrs += w.mopt.TotalInstrs + w.mopt.WarmupPerCore*uint64(mcs[d].Cores)
			}
		}
		p.vals["fig9.cells"] = float64(cells)
		p.vals["fig9.sim_minstr"] = float64(instrs) / 1e6
		keep("fig9", struct{ Runs, Speedup, NormEnergy any }{f9.Runs, f9.Speedup, f9.NormEnergy})
		p.do(tr, layerRender, "fig9", func() error { experiments.RenderFig9(io.Discard, f9); return nil })
		p.do(tr, layerRender, "fig10", func() error { experiments.RenderFig10(io.Discard, f9); return nil })
	}
}

// renderInfra is m3dcli's "infra" step: the clock-tree and PDN analyses.
func renderInfra() error {
	n := tech.N22()
	fp := floorplan.Core2D()
	const sinks = 100_000
	red, err := clocktree.FoldedReduction(n, fp.WidthM, fp.HeightM, sinks, 0.5)
	if err != nil {
		return err
	}
	tree, err := clocktree.Build(n, fp.WidthM, fp.HeightM, sinks)
	if err != nil {
		return err
	}
	fmt.Fprintf(io.Discard, "%v %v %v", tree.WireLenM, tree.PowerWatts(0.8, 2.8e9), red)
	half, err := floorplan.Folded(0.5)
	if err != nil {
		return err
	}
	spec := pdn.Spec{WidthM: half.WidthM, HeightM: half.HeightM,
		PowerW: 6.4, Vdd: 0.8, BottomShare: 0.55, DroopBudget: 0.05}
	_, err = pdn.Recommend(n, spec)
	return err
}

// renderAccel is m3dcli's "accel" step: the accelerator integrations.
func renderAccel() error {
	n := tech.N22()
	const freq = 3.5e9
	for _, in := range []accel.Integration{accel.SideBySide2D(), accel.VerticalM3D()} {
		if _, err := in.BreakEvenCycles(n, 128, 4, freq); err != nil {
			return err
		}
		if _, err := in.TransferLatencyCycles(n, 256, freq); err != nil {
			return err
		}
	}
	return nil
}
