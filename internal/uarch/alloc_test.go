package uarch

import (
	"testing"

	"vertical3d/internal/config"
	"vertical3d/internal/mem"
	"vertical3d/internal/trace"
	"vertical3d/internal/workload"
)

// TestRunChunkAllocatesNothing guards the zero-allocation cycle path: once
// a core's rings, scheduling queues and wakeup arena have grown to their
// working size, a further chunk of Run on the event kernel, replaying a
// recording long enough that it never extends, must not allocate.
func TestRunChunkAllocatesNothing(t *testing.T) {
	cfg := suite(t).Configs[config.M3DHet]
	const warmup, chunk, runs = 100_000, 5_000, 20
	for _, bench := range []string{"Gobmk", "Mcf"} {
		t.Run(bench, func(t *testing.T) {
			p, err := workload.ByName(bench)
			if err != nil {
				t.Fatal(err)
			}
			// The frontend runs ahead of retirement, so record past the
			// last retired instruction with room to spare.
			rec := trace.Record(p, 42, 0, 2*(warmup+(runs+1)*chunk))
			h, err := mem.NewHierarchy(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c, err := NewCoreKernel(0, cfg, trace.NewReplayer(rec), h, KernelEvent)
			if err != nil {
				t.Fatal(err)
			}
			target := uint64(warmup)
			c.Run(target)
			allocs := testing.AllocsPerRun(runs, func() {
				target += chunk
				c.Run(target)
			})
			if allocs != 0 {
				t.Errorf("Run allocates %v times per %d-instruction chunk, want 0", allocs, chunk)
			}
		})
	}
}
