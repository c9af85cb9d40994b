package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
)

func TestScriptIsDeterministicPerSeed(t *testing.T) {
	for _, seed := range []int64{1, 42, 7777} {
		a, b := genScript(seed, defaultSize), genScript(seed, defaultSize)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two scripts differ", seed)
		}
	}
	if reflect.DeepEqual(genScript(1, defaultSize), genScript(2, defaultSize)) {
		t.Fatal("seeds 1 and 2 made the same script")
	}
}

func TestScriptClasses(t *testing.T) {
	size := defaultSize
	for seed := int64(0); seed < 50; seed++ {
		s := genScript(seed, size)
		seen := map[int]bool{} // specs requested so far, by any client
		warmups := map[uint64]bool{}
		counts := map[class]int{}
		pairs := 0
		for ci, ops := range s.clients {
			issued := map[int]bool{} // this client's finished specs
			for _, o := range ops {
				if len(o) == 2 {
					pairs++
					if o[0].class != classNew || o[1].class != classTwin || o[0].spec != o[1].spec {
						t.Fatalf("seed %d client %d: pair %v is not a new request and its twin", seed, ci, o)
					}
				} else if len(o) != 1 || o[0].class == classTwin {
					t.Fatalf("seed %d client %d: bad op %v", seed, ci, o)
				}
				for _, r := range o {
					counts[r.class]++
					switch r.class {
					case classNew:
						if seen[r.spec] {
							t.Fatalf("seed %d: new request for spec %d, requested before", seed, r.spec)
						}
						if w := s.specs[r.spec].Warmup; warmups[w] {
							t.Fatalf("seed %d: two new specs share warmup %d, so their cells coincide", seed, w)
						}
						warmups[s.specs[r.spec].Warmup] = true
					case classRepeat:
						if !issued[r.spec] {
							t.Fatalf("seed %d client %d: repeat of spec %d before the client finished it", seed, ci, r.spec)
						}
					}
					seen[r.spec] = true
				}
				for _, r := range o {
					issued[r.spec] = true
				}
			}
		}
		nNew := size.clients * (size.singles + size.pairs)
		if counts[classNew] != nNew || counts[classRepeat] != size.clients*size.repeats || counts[classTwin] != size.clients*size.pairs {
			t.Fatalf("seed %d: class counts %v", seed, counts)
		}
		if pairs != size.clients*size.pairs {
			t.Fatalf("seed %d: %d coalescing pairs, want %d", seed, pairs, size.clients*size.pairs)
		}
		if counts[classNew] < 100 {
			t.Fatalf("seed %d: %d new requests cannot support a p90", seed, counts[classNew])
		}
		for i, sp := range s.specs {
			if sp.Benchmarks[0] == sp.Benchmarks[1] {
				t.Fatalf("seed %d: spec %d sweeps %s twice", seed, i, sp.Benchmarks[0])
			}
			if sp.Seed == s.canary.Seed {
				t.Fatalf("seed %d: spec %d uses the canary seed", seed, i)
			}
		}
		if got, want := s.uniqueCells(), nNew*2*6; got != want {
			t.Fatalf("seed %d: %d unique cells, want %d", seed, got, want)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // descending, so the helper must sort
		}
		return v
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64 // 0 = must refuse
	}{
		{19, 0.5, 0}, {20, 0.5, 10}, {21, 0.5, 11},
		{99, 0.9, 0}, {100, 0.9, 90}, {0, 0.5, 0},
	} {
		got, err := percentile(xs(c.n), c.q)
		if c.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d samples = %v, want refusal", c.q*100, c.n, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%g of %d samples = %v, %v; want %v", c.q*100, c.n, got, err, c.want)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !valid.MatchString(m.name) || !unit.MatchString(m.unit) {
			t.Errorf("metric %q unit %q is not a valid name and unit", m.name, m.unit)
		}
		if seen[m.name] {
			t.Errorf("metric %q declared twice", m.name)
		}
		seen[m.name] = true
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, decl []struct{ Name, Unit string }, code []metricDef) {
		if len(decl) != len(code) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the code reports %d", what, len(decl), len(code))
			return
		}
		for i := range decl {
			if decl[i].Name != code[i].name || decl[i].Unit != code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the code %s (%s)", what, i, decl[i].Name, decl[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "bench.pass", Start: 0, End: 10},
		{ID: 2, Parent: 1, Layer: "a", Start: 1, End: 4},
		{ID: 3, Parent: 2, Layer: "b", Start: 2, End: 3},
		{ID: 4, Parent: 1, Layer: "c", Start: 5, End: 9},
		{ID: 5, Parent: 4, Layer: "d", Start: 5, End: 7},
		{ID: 6, Parent: 4, Layer: "d", Start: 6, End: 8}, // overlaps its sibling
		{ID: 7, Layer: "bench.setup", Start: 10, End: 11},
	}
	self := selfTimes(spans)
	for id, want := range map[int]float64{1: 3, 2: 2, 3: 1, 4: 1, 5: 2, 6: 2, 7: 1} {
		if math.Abs(self[id]-want) > 1e-12 {
			t.Errorf("span %d self = %v, want %v", id, self[id], want)
		}
	}
	byLayer, total := layerSelf(spans, map[int]bool{1: true})
	if total != 10 || byLayer["bench.pass"] != 3 || byLayer["a"] != 2 || byLayer["d"] != 4 || byLayer["bench.setup"] != 0 {
		t.Errorf("layerSelf = %v, lane total %v", byLayer, total)
	}
}
