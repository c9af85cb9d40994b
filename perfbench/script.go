package main

import (
	"math/rand"

	"vertical3d/internal/config"
	"vertical3d/internal/trace"
	"vertical3d/internal/workload"
)

// spec is one POST /sweeps body: a fig6 sweep over two profiles.
type spec struct {
	Experiment string   `json:"experiment"`
	Benchmarks []string `json:"benchmarks"`
	Warmup     uint64   `json:"warmup,omitempty"`
	Seed       int64    `json:"seed"`
}

// class is a request's role in the script, fixed when the script is made.
type class int

const (
	classNew    class = iota // every cell is requested here for the first time
	classRepeat              // the same spec as an earlier, finished request of the client
	classTwin                // posted right after an identical new request, so the two coalesce
)

func (c class) String() string { return [...]string{"new", "repeat", "twin"}[c] }

// request is one sweep request of the script.
type request struct {
	spec  int // index into script.specs
	class class
}

// op is one closed-loop step of a client: a single request, or a new
// request and its twin posted back to back and then awaited.
type op []request

// script is the serve-mix traffic: one op list per client, the specs they
// refer to, and a canary spec that set-up runs and the script never uses.
type script struct {
	specs   []spec
	clients [][]op
	canary  spec
}

// scriptSize is the per-client shape of a script.
type scriptSize struct {
	clients, singles, pairs, repeats int
}

// defaultSize gives 104 new requests (enough for a p90 with ten samples
// beyond it), 60 repeats and 16 twins.
var defaultSize = scriptSize{clients: 2, singles: 44, pairs: 8, repeats: 30}

// quickWarmup is m3dd -quick's warmup. Every new spec asks for a distinct
// warmup just above it, so its cells are new while its recordings are
// shared with the other specs of the same (profile, seed).
const quickWarmup = 20_000

// profilePool is the fixed set of profiles the script draws from: the
// whole SPEC2006 suite. Each profile fills the same number of slots in
// every script, so scripts of different seeds cost about the same.
func profilePool() []trace.Profile { return workload.SPEC2006() }

// cells is the number of cells a spec sweeps: one per profile and design.
func (s spec) cells() int { return len(s.Benchmarks) * len(config.SingleCoreDesigns()) }

// genScript makes the script of a seed. The same seed and size always
// give the same script.
func genScript(seed int64, size scriptSize) script {
	rng := rand.New(rand.NewSource(seed))
	seeds := [2]int64{1 + rng.Int63n(1<<30), 0}
	for seeds[1] = 1 + rng.Int63n(1<<30); seeds[1] == seeds[0]; seeds[1] = 1 + rng.Int63n(1<<30) {
	}
	pool := profilePool()
	perClient := size.singles + size.pairs
	nNew := size.clients * perClient

	// Balanced draws: each profile fills the same number of the 2·nNew
	// slots and each seed half of the specs; only the order is random.
	slots := make([]string, 2*nNew)
	for i := range slots {
		slots[i] = pool[i%len(pool)].Name
	}
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	for i := 0; i < len(slots); i += 2 {
		if slots[i] != slots[i+1] {
			continue
		}
		// Swap the duplicate with a slot whose pair stays distinct too.
		for j := range slots {
			if j/2 != i/2 && slots[j] != slots[i] && slots[j^1] != slots[i] {
				slots[i+1], slots[j] = slots[j], slots[i+1]
				break
			}
		}
	}
	simSeeds := make([]int64, nNew)
	for i := range simSeeds {
		simSeeds[i] = seeds[i%2]
	}
	rng.Shuffle(len(simSeeds), func(i, j int) { simSeeds[i], simSeeds[j] = simSeeds[j], simSeeds[i] })

	s := script{
		canary: spec{Experiment: "fig6", Benchmarks: []string{pool[0].Name, pool[1].Name}, Seed: max(seeds[0], seeds[1]) + 1},
	}
	for i := 0; i < nNew; i++ {
		s.specs = append(s.specs, spec{
			Experiment: "fig6",
			Benchmarks: []string{slots[2*i], slots[2*i+1]},
			Warmup:     quickWarmup + uint64(i) + 1,
			Seed:       simSeeds[i],
		})
	}

	for c := 0; c < size.clients; c++ {
		// The first op is new, so every repeat has something to repeat.
		kinds := make([]class, 0, perClient+size.repeats)
		for i := 0; i < size.singles-1; i++ {
			kinds = append(kinds, classNew)
		}
		for i := 0; i < size.pairs; i++ {
			kinds = append(kinds, classTwin)
		}
		for i := 0; i < size.repeats; i++ {
			kinds = append(kinds, classRepeat)
		}
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		kinds = append([]class{classNew}, kinds...)

		next := c * perClient
		var issued []int
		var ops []op
		for _, k := range kinds {
			switch k {
			case classNew:
				ops = append(ops, op{{next, classNew}})
				issued = append(issued, next)
				next++
			case classTwin:
				ops = append(ops, op{{next, classNew}, {next, classTwin}})
				issued = append(issued, next)
				next++
			case classRepeat:
				ops = append(ops, op{{issued[rng.Intn(len(issued))], classRepeat}})
			}
		}
		s.clients = append(s.clients, ops)
	}
	return s
}

// uniqueCells is the number of distinct cells the script asks for, which
// is how many the daemon must simulate.
func (s script) uniqueCells() int {
	n := 0
	for _, sp := range s.specs {
		n += sp.cells()
	}
	return n
}
