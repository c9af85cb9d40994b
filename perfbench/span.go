package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// A span is one call the benchmark made into a layer of the program. Lanes
// are the benchmark's own sequential threads of work (one sweep pass, one
// serving client, one set-up); every other span is a layer call inside a
// lane. Spans of one serving request share its Req id.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a lane
	Layer  string  `json:"layer"`
	Op     string  `json:"op,omitempty"`
	Req    string  `json:"req,omitempty"`
	Start  float64 `json:"start_s"` // seconds since the tracer's origin
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs call the same code.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// record stores a finished span and returns its id (0 from a nil tracer).
func (t *tracer) record(parent int, layer, op, req string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Layer: layer, Op: op, Req: req,
		Start: start.Sub(t.origin).Seconds(), End: end.Sub(t.origin).Seconds(),
	})
	return id
}

// lane opens a lane span whose end is filled in by the returned func.
func (t *tracer) lane(layer, op string) (id int, end func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Now()
	id = t.record(0, layer, op, "", start, start)
	return id, func() {
		t.mu.Lock()
		t.spans[id-1].End = time.Since(t.origin).Seconds()
		t.mu.Unlock()
	}
}

// call times fn as a span of layer under parent.
func (t *tracer) call(parent int, layer, op string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.record(parent, layer, op, "", start, end)
	return end.Sub(start)
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	raw, err := json.MarshalIndent(t.snapshot(), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// selfTimes returns each span's duration minus the part of it its children
// cover, keyed by span id. Children of one parent may overlap only when
// they run concurrently; the covered part is their union.
func selfTimes(spans []span) map[int]float64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, children []span) float64 {
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, end := 0.0, parent.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return total
}

// layerSelf sums self time by layer over the spans under the given lanes,
// and returns the lanes' total duration beside it. The lanes' own self time
// is the benchmark's unattributed time, reported under the lane's layer.
func layerSelf(spans []span, lanes map[int]bool) (byLayer map[string]float64, laneTotal float64) {
	self := selfTimes(spans)
	laneOf := map[int]int{}
	for _, s := range spans { // parents precede children: ids grow with record order
		if lanes[s.ID] {
			laneOf[s.ID] = s.ID
		} else if l, ok := laneOf[s.Parent]; ok {
			laneOf[s.ID] = l
		}
	}
	byLayer = map[string]float64{}
	for _, s := range spans {
		if _, ok := laneOf[s.ID]; !ok {
			continue
		}
		byLayer[s.Layer] += self[s.ID]
		if lanes[s.ID] {
			laneTotal += s.End - s.Start
		}
	}
	return byLayer, laneTotal
}
