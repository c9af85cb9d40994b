package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// runServe runs serve-mix: boot a daemon and run the canary several times
// (set-up), then the script against the last daemon booted. A traced run
// then boots one more daemon and runs the script again with spans on; the
// difference of the two script wall times is the tracing overhead.
func runServe(bin, outDir string, seed int64, traced bool, sig <-chan os.Signal) (*outcome, error) {
	s := genScript(seed, defaultSize)
	runDir, err := os.MkdirTemp(outDir, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	// A signal stops the daemon in use before the benchmark exits.
	var mu sync.Mutex
	var active *daemon
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-sig:
			mu.Lock()
			if active != nil {
				active.stop()
			}
			os.Exit(130)
		case <-done:
		}
	}()
	boot := func(i int, tr *tracer) (*daemon, time.Duration, time.Duration, error) {
		d, b, total, err := serveSetup(bin, filepath.Join(runDir, fmt.Sprint("daemon", i)), s, tr)
		mu.Lock()
		active = d
		mu.Unlock()
		return d, b, total, err
	}

	out := newOutcome()
	var setups, boots []float64
	var d *daemon
	for i := 0; i < setupRepeats; i++ {
		dd, b, total, err := boot(i, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, total.Seconds())
		boots = append(boots, b.Seconds())
		if i < setupRepeats-1 {
			dd.stop()
		} else {
			d = dd
		}
	}
	plain, err := runScript(d, s, nil)
	d.stop()
	if err != nil {
		return nil, err
	}
	out.account(plain, s)
	out.digest = plain.digest
	out.samples["setup_s"] = setups
	out.e2e["setup_s"] = median(setups)
	out.e2e["wall_s"] = plain.wall.Seconds()
	out.e2e["cpu_s"] = plain.cpu.Seconds()
	out.e2e["peak_rss_mb"] = plain.peakMB
	out.e2e["retained_mb"] = plain.rssMB
	if !traced {
		return out, nil
	}

	tr := newTracer()
	d, b, total, err := boot(setupRepeats, tr)
	if err != nil {
		return nil, err
	}
	boots = append(boots, b.Seconds())
	setups = append(setups, total.Seconds())
	spanned, err := runScript(d, s, tr)
	d.stop()
	if err != nil {
		return nil, err
	}
	out.account(spanned, s)
	out.check(spanned.digest == plain.digest, "traced script digest %s differs from untraced %s", spanned.digest, plain.digest)

	L := out.layer
	L["m3dd.boot_s"] = median(boots)
	L["m3dd.canary_s"] = median(setups) - median(boots)
	var all, fresh, repeats []*reqRecord
	appends := 0
	for _, r := range spanned.recs {
		if r.err != nil {
			continue
		}
		all = append(all, r)
		appends += r.journalAppends
		switch r.class {
		case classNew:
			fresh = append(fresh, r)
		case classRepeat:
			repeats = append(repeats, r)
		}
	}
	pct := func(name string, rs []*reqRecord, q, scale float64, f func(*reqRecord) time.Duration) {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = f(r).Seconds() * scale
		}
		v, err := percentile(xs, q)
		out.check(err == nil, "%s: %v", name, err)
		L[name] = v
	}
	pct("m3dd.admit_ms_p50", all, 0.5, 1e3, func(r *reqRecord) time.Duration { return r.admitted.Sub(r.post) })
	queue := func(r *reqRecord) time.Duration { return r.running.Sub(r.admitted) }
	run := func(r *reqRecord) time.Duration { return r.done.Sub(r.running) }
	pct("m3dd.queue_s_p50", fresh, 0.5, 1, queue)
	pct("m3dd.queue_s_p90", fresh, 0.9, 1, queue)
	pct("m3dd.run_s_p50", fresh, 0.5, 1, run)
	pct("m3dd.run_s_p90", fresh, 0.9, 1, run)
	pct("m3dd.fetch_ms_p50", all, 0.5, 1e3, func(r *reqRecord) time.Duration { return r.fetchEnd.Sub(r.fetchStart) })
	latency := (*reqRecord).latency
	pct("new_p50_s", fresh, 0.5, 1, latency)
	pct("new_p90_s", fresh, 0.9, 1, latency)
	pct("repeat_p50_ms", repeats, 0.5, 1e3, latency)

	c0, c1 := spanned.before.Cache, spanned.after.Cache
	computed := c1.Computed - c0.Computed
	served := (c1.Hits - c0.Hits) + (c1.Coalesced - c0.Coalesced) + (c1.DiskHits - c0.DiskHits)
	n := len(spanned.recs)
	L["m3dd.cells_per_s"] = float64(computed) / spanned.wall.Seconds()
	L["m3dd.requests"] = float64(n)
	L["m3dd.new_requests"] = float64(len(fresh))
	L["m3dd.repeat_requests"] = float64(len(repeats))
	L["m3dd.twin_requests"] = float64(n - len(fresh) - len(repeats))
	L["m3dd.repeat_share"] = float64(len(repeats)) / float64(max(n, 1))
	L["admission.accepted"] = float64(spanned.after.Admission.Accepted - spanned.before.Admission.Accepted)
	L["admission.shed"] = float64(spanned.after.Admission.Shed - spanned.before.Admission.Shed)
	L["resultcache.hits"] = float64(c1.Hits - c0.Hits)
	L["resultcache.coalesced"] = float64(c1.Coalesced - c0.Coalesced)
	L["resultcache.computed"] = float64(computed)
	L["resultcache.unique_cells"] = float64(s.uniqueCells())
	if served+computed > 0 {
		L["resultcache.serve_ratio"] = float64(served) / float64(served+computed)
	}
	L["resultcache.bytes"] = float64(c1.Bytes)
	L["resultcache.evictions"] = float64(c1.Evictions - c0.Evictions)
	L["journal.appends"] = float64(appends)
	if spanned.before.JobStoreStats != nil && spanned.after.JobStoreStats != nil {
		L["jobstore.records"] = float64(spanned.after.JobStoreStats.Appends - spanned.before.JobStoreStats.Appends)
	}
	out.attribute(tr.snapshot(), spanned.lanes, "bench.client", len(s.clients))
	L["bench.trace_overhead_s"] = spanned.wall.Seconds() - plain.wall.Seconds()
	out.spans = tr
	return out, nil
}

// account counts one script's requests and checks against the outcome:
// every request must finish with its cells intact, and the daemon must
// simulate exactly the script's distinct cells.
func (o *outcome) account(r *scriptRun, s script) {
	for _, rec := range r.recs {
		o.attempted++
		if rec.err != nil {
			o.failed++
		}
	}
	o.problems = append(o.problems, r.problems...)
	computed := r.after.Cache.Computed - r.before.Cache.Computed
	o.check(computed == uint64(s.uniqueCells()), "daemon simulated %d cells, the script has %d distinct cells", computed, s.uniqueCells())
}
