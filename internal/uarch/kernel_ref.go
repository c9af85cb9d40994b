package uarch

import "vertical3d/internal/trace"

// This file is the reference simulation kernel: the original scan-based
// issue logic, kept behind the kernel seam as the baseline for the
// differential oracle (oracle_test.go). Its per-cycle cost is O(ROBSize)
// for issue; the event kernel in kernel_event.go replaces the scan while
// reproducing its Stats bit for bit. Memory latencies come from the shared
// dispatch-time probe (Core.memLatency), identically in both kernels.

// issueRef wakes up and selects ready instructions, oldest first, by
// scanning the whole ROB and re-polling ready() on every waiting entry,
// respecting functional-unit ports, and executes them.
func (c *Core) issueRef() {
	p := &c.cfg.Core
	budget := c.newBudget()
	issued := 0

	idx := c.head
	for scanned := 0; scanned < c.count && issued < p.IssueWidth; scanned++ {
		e := &c.rob[idx]
		if e.state != stWaiting {
			idx = (idx + 1) % len(c.rob)
			continue
		}
		if !c.ready(e) {
			idx = (idx + 1) % len(c.rob)
			continue
		}

		ok, lat := c.allocFU(e, &budget, c.memLatency)
		if !ok {
			idx = (idx + 1) % len(c.rob)
			continue
		}

		c.markIssued(e, lat)
		issued++

		// Branches resolve at completion; mispredictions flush everything
		// younger, so the issue scan cannot continue past them.
		if e.kind == trace.Branch && (e.mispred || e.btbMiss) {
			c.squashAfter(idx, e)
			c.finish(e)
			break
		}
		c.finish(e)
		idx = (idx + 1) % len(c.rob)
	}
}
