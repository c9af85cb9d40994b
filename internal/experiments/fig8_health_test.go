package experiments

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"vertical3d/internal/config"
	"vertical3d/internal/parallel"
	"vertical3d/internal/power"
	"vertical3d/internal/tech"
	"vertical3d/internal/trace"
)

// fig8Lost lists the Fig6 cells the keep-going fixture loses, in the
// benchmark-then-design order Fig8Health walks them: two cells behind
// Mcf's row and one behind Hmmer's, so only Gobmk keeps a thermal row.
var fig8Lost = []string{"Mcf/TSV3D", "Mcf/M3D-Het", "Hmmer/Base"}

var fig8Fixture struct {
	once  sync.Once
	suite *config.Suite
	lossy *Fig6Result
	err   error
}

// fig8Source runs, once per test binary, a keep-going Fig6 sweep over Mcf,
// Gobmk and Hmmer that loses the cells in fig8Lost to injected panics.
func fig8Source(t *testing.T) (*config.Suite, *Fig6Result) {
	t.Helper()
	fx := &fig8Fixture
	fx.once.Do(func() {
		trace.ResetCache()
		defer trace.ResetCache()
		fx.suite, fx.err = config.Derive(tech.N22())
		if fx.err != nil {
			return
		}
		lost := map[string]bool{}
		for _, c := range fig8Lost {
			lost[c] = true
		}
		opt := QuickRunOptions()
		opt.KeepGoing = true
		opt.CellHook = func(bench, design string) {
			if lost[bench+"/"+design] {
				panic("injected: thermal-relevant cell lost")
			}
		}
		fx.lossy, fx.err = Fig6With(fx.suite, oracleProfiles(t, "Mcf", "Gobmk", "Hmmer"), opt)
	})
	if fx.err != nil {
		t.Fatal(fx.err)
	}
	return fx.suite, fx.lossy
}

// TestFig8HealthReportsDroppedRows proves the keep-going skip path is no
// longer silent: a benchmark whose Fig6 cells partially failed is dropped
// from the Figure 8 table, and every failed source cell behind the drop is
// recorded as a "fig8" DegradationEvent, in benchmark-then-design order.
func TestFig8HealthReportsDroppedRows(t *testing.T) {
	s, f := fig8Source(t)
	if f.FailedCells() != len(fig8Lost) {
		t.Fatalf("want exactly the %d injected failures, got %d failed cells", len(fig8Lost), f.FailedCells())
	}

	rows, h, err := Fig8Health(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Benchmark != "Gobmk" {
		t.Fatalf("want only Gobmk's thermal row, got %d row(s)", len(rows))
	}
	if !h.Degraded || len(h.Events) != len(fig8Lost) {
		t.Fatalf("want one degradation event per lost cell, got %+v", h)
	}
	for i, ev := range h.Events {
		if ev.Layer != "fig8" || ev.Cell != fig8Lost[i] {
			t.Errorf("event %d = %+v, want layer fig8 cell %s", i, ev, fig8Lost[i])
		}
		if ev.Cause == "" {
			t.Errorf("event %d carries no cause", i)
		}
	}

	// The legacy entry point stays behaviour-compatible: same rows, no
	// error, just without the report.
	legacy, err := Fig8(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(legacy) != len(rows) {
		t.Errorf("Fig8 and Fig8Health disagree: %d vs %d rows", len(legacy), len(rows))
	}

	// A fault-free source sweep reports a clean bill.
	trace.ResetCache()
	defer trace.ResetCache()
	clean, err := Fig6With(s, oracleProfiles(t, "Mcf", "Gobmk"), QuickRunOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, h, err = Fig8Health(clean); err != nil || h.Degraded {
		t.Errorf("clean sweep: err=%v degraded=%v", err, h.Degraded)
	}
}

// TestFig8HealthMatchesSerialReference pins the fan-out of Fig8's thermal
// solves: at one and at four workers, rows and Health deep-equal a serial
// reference built here cell by cell from SolveDesignThermal.
func TestFig8HealthMatchesSerialReference(t *testing.T) {
	_, f := fig8Source(t)

	designs := []config.Design{config.Base, config.TSV3D, config.M3DHet}
	var want []Fig8Row
	wantHealth := Health{}
	for _, b := range f.Benchmarks {
		var lost bool
		for _, d := range designs {
			if err := f.Errors[b][d]; err != nil {
				lost = true
				wantHealth.Degraded = true
				wantHealth.Events = append(wantHealth.Events, DegradationEvent{
					Layer:  "fig8",
					Cell:   fmt.Sprintf("%s/%s", b, d),
					Action: "dropped the benchmark's thermal row (source cell failed in the Fig6 sweep)",
					Cause:  err.Error(),
				})
			}
		}
		if lost {
			continue
		}
		row := Fig8Row{Benchmark: b, PeakC: map[config.Design]float64{}, PowerW: map[config.Design]float64{}}
		for _, d := range designs {
			run := f.Runs[b][d]
			blocks := power.BlockPowers(f.Suite.Configs[d], run.Stats, run.Mem, run.Seconds)
			res, watts, err := SolveDesignThermal(d, blocks, 0)
			if err != nil {
				t.Fatal(err)
			}
			row.PeakC[d] = res.PeakC
			row.PowerW[d] = watts
		}
		want = append(want, row)
	}

	prev := parallel.SetDefaultWorkers(0)
	defer parallel.SetDefaultWorkers(prev)
	for _, workers := range []int{1, 4} {
		parallel.SetDefaultWorkers(workers)
		rows, h, err := Fig8Health(f)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(rows, want) {
			t.Errorf("workers=%d: rows differ from the serial reference\n got %+v\nwant %+v", workers, rows, want)
		}
		if !reflect.DeepEqual(h, wantHealth) {
			t.Errorf("workers=%d: health differs from the serial reference\n got %+v\nwant %+v", workers, h, wantHealth)
		}
	}
}
