package mem

import "fmt"

// CacheState is a deep copy of a Cache's mutable contents — the packed
// tag/age lane, dirty bits, LRU clock, way memo and statistics — plus the
// geometry it was captured from. It is the unit of the warm-state snapshot
// layer: a snapshot taken once per (profile, seed, stream, geometry)
// identity is restored into many concurrently running sweep cells, so
// State copies out and SetState copies in; neither ever aliases the
// snapshot's slices (copy-on-restore).
type CacheState struct {
	Sets      int
	Ways      int
	LineShift uint

	Words   []uint64
	Dirty   []bool
	Clock   uint32
	LastLA  uint64
	LastIdx int32
	Stats   CacheStats
}

// State returns a deep copy of the cache's mutable state.
func (c *Cache) State() CacheState {
	return CacheState{
		Sets:      c.sets,
		Ways:      c.ways,
		LineShift: c.lineShift,
		Words:     append([]uint64(nil), c.words...),
		Dirty:     append([]bool(nil), c.dirty...),
		Clock:     c.clock,
		LastLA:    c.lastLA,
		LastIdx:   c.lastIdx,
		Stats:     c.Stats,
	}
}

// compatible reports whether the snapshot was captured from a cache of this
// geometry. Restoring a mismatched snapshot would alias lines across sets.
func (c *Cache) compatible(s *CacheState) error {
	if s.Sets != c.sets || s.Ways != c.ways || s.LineShift != c.lineShift ||
		len(s.Words) != len(c.words) || len(s.Dirty) != len(c.dirty) {
		return fmt.Errorf("mem: snapshot geometry %dx%d way (shift %d, %d words) does not match cache %dx%d way (shift %d, %d words)",
			s.Sets, s.Ways, s.LineShift, len(s.Words), c.sets, c.ways, c.lineShift, len(c.words))
	}
	return nil
}

// setState copies the snapshot into the cache's own storage. The caller has
// already verified compatibility.
func (c *Cache) setState(s *CacheState) {
	copy(c.words, s.Words)
	copy(c.dirty, s.Dirty)
	c.clock = s.Clock
	c.lastLA = s.LastLA
	c.lastIdx = s.LastIdx
	c.Stats = s.Stats
}

// SetState restores a snapshot taken by State into this cache, copying into
// the cache's existing arrays so the snapshot can keep serving other cells.
// A geometry mismatch is rejected before any mutation.
func (c *Cache) SetState(s *CacheState) error {
	if err := c.compatible(s); err != nil {
		return err
	}
	c.setState(s)
	return nil
}

// HierState is a deep snapshot of a single-core Hierarchy: all four cache
// levels plus the stream-prefetcher state. Configuration (latencies,
// frequency) is deliberately excluded — it is design-dependent, while the
// state captured here depends only on the probe sequence and the cache
// geometry, which is what lets one snapshot serve every design of a sweep.
type HierState struct {
	IL1, DL1, L2, L3 CacheState

	LastDataLine uint64
	Prefetches   uint64
}

// State returns a deep copy of the hierarchy's mutable state.
func (h *Hierarchy) State() *HierState {
	return &HierState{
		IL1:          h.il1.State(),
		DL1:          h.dl1.State(),
		L2:           h.l2.State(),
		L3:           h.l3.State(),
		LastDataLine: h.lastDataLine,
		Prefetches:   h.Prefetches,
	}
}

// SetState restores a snapshot taken by State. Every level is checked for
// geometry compatibility before any level is mutated, so a mismatch never
// leaves the hierarchy half-restored.
func (h *Hierarchy) SetState(s *HierState) error {
	levels := []struct {
		name string
		dst  *Cache
		src  *CacheState
	}{
		{"IL1", h.il1, &s.IL1},
		{"DL1", h.dl1, &s.DL1},
		{"L2", h.l2, &s.L2},
		{"L3", h.l3, &s.L3},
	}
	for _, l := range levels {
		if err := l.dst.compatible(l.src); err != nil {
			return fmt.Errorf("mem: %s: %w", l.name, err)
		}
	}
	for _, l := range levels {
		l.dst.setState(l.src)
	}
	h.lastDataLine = s.LastDataLine
	h.Prefetches = s.Prefetches
	return nil
}

// FillLatencies returns the three possible extra latencies an L1 miss can
// resolve with in this hierarchy: an L2 hit, an L3 hit, and a DRAM fill
// (each inclusive of the levels above it). Together with the guarantee that
// fillFromL2 returns exactly one of these values, they let callers classify
// every miss by fill level — the design-independent form of the warm-phase
// observations (see uarch.WarmObs).
func (h *Hierarchy) FillLatencies() (l2, l3, dram int) {
	l2 = h.cfg.L2.RTCycles
	l3 = l2 + h.cfg.L3.RTCycles
	return l2, l3, l3 + h.dramCycles
}

// DirEntryState is the exported form of a directory entry in an MCState.
type DirEntryState struct {
	Sharers uint32
	Owner   int8
	State   uint8
}

// MCState is a deep snapshot of a Multicore memory system: every private
// and shared cache, the coherence directory, the per-core prefetcher state
// and the NoC/coherence counters. Like HierState it carries no
// configuration, only probe-sequence-dependent state.
type MCState struct {
	IL1, DL1, L2 []CacheState
	L3           CacheState

	Dir          map[uint64]DirEntryState
	LastDataLine []uint64

	NoCHops       uint64
	Invalidations uint64
	Forwards      uint64
	Prefetches    uint64
}

// State returns a deep copy of the multicore system's mutable state.
func (m *Multicore) State() *MCState {
	s := &MCState{
		L3:           m.l3.State(),
		Dir:          make(map[uint64]DirEntryState, m.dir.n),
		LastDataLine: append([]uint64(nil), m.lastDataLine...),

		NoCHops:       m.Extra.NoCHops,
		Invalidations: m.Extra.Invalidations,
		Forwards:      m.Extra.Forwards,
		Prefetches:    m.Extra.Prefetches,
	}
	for _, c := range m.il1 {
		s.IL1 = append(s.IL1, c.State())
	}
	for _, c := range m.dl1 {
		s.DL1 = append(s.DL1, c.State())
	}
	for _, c := range m.l2 {
		s.L2 = append(s.L2, c.State())
	}
	for _, sl := range m.dir.slots {
		if sl.key != 0 {
			e := sl.e
			s.Dir[sl.key-1] = DirEntryState{Sharers: e.sharers, Owner: e.owner, State: uint8(e.state)}
		}
	}
	return s
}

// SetState restores a snapshot taken by State. Topology and geometry are
// checked across every cache before any mutation; the directory is rebuilt
// into a fresh table so concurrent cells never share entries.
func (m *Multicore) SetState(s *MCState) error {
	if len(s.IL1) != len(m.il1) || len(s.DL1) != len(m.dl1) || len(s.L2) != len(m.l2) ||
		len(s.LastDataLine) != len(m.lastDataLine) {
		return fmt.Errorf("mem: snapshot topology (%d IL1, %d DL1, %d L2) does not match %s",
			len(s.IL1), len(s.DL1), len(s.L2), m)
	}
	for i := range m.il1 {
		if err := m.il1[i].compatible(&s.IL1[i]); err != nil {
			return fmt.Errorf("mem: IL1[%d]: %w", i, err)
		}
	}
	for i := range m.dl1 {
		if err := m.dl1[i].compatible(&s.DL1[i]); err != nil {
			return fmt.Errorf("mem: DL1[%d]: %w", i, err)
		}
	}
	for i := range m.l2 {
		if err := m.l2[i].compatible(&s.L2[i]); err != nil {
			return fmt.Errorf("mem: L2[%d]: %w", i, err)
		}
	}
	if err := m.l3.compatible(&s.L3); err != nil {
		return fmt.Errorf("mem: L3: %w", err)
	}
	for i := range m.il1 {
		m.il1[i].setState(&s.IL1[i])
	}
	for i := range m.dl1 {
		m.dl1[i].setState(&s.DL1[i])
	}
	for i := range m.l2 {
		m.l2[i].setState(&s.L2[i])
	}
	m.l3.setState(&s.L3)
	m.dir = newDirTable(len(s.Dir))
	for la, e := range s.Dir {
		*m.dir.get(la) = dirEntry{sharers: e.Sharers, owner: e.Owner, state: dirState(e.State)}
	}
	copy(m.lastDataLine, s.LastDataLine)
	m.Extra.NoCHops = s.NoCHops
	m.Extra.Invalidations = s.Invalidations
	m.Extra.Forwards = s.Forwards
	m.Extra.Prefetches = s.Prefetches
	return nil
}
