// Command perfbench is the repository's benchmark. One run measures one
// workload and prints, as the last line of its standard output, one JSON
// object: whether the outputs were correct, the operations attempted and
// failed, and the metrics. An untraced run (-trace 0) reports the
// end-to-end metrics; a traced run (-trace 1) records a span at every call
// it makes into a layer of the program and reports the per-layer metrics.
//
// Workloads:
//
//	paper-quick   `m3dcli -quick all`, in-process: every table and figure
//	fig6-sampled  `m3dcli -sample fig6` at default sizing, warm snapshots on
//	serve-mix     an m3dd -quick daemon under two closed-loop clients that
//	              mix new, repeated and coalescing fig6 sweeps
//
// The workload seed makes every input: the order of the profiles each
// sweep of the two CLI workloads hands its worker pool (they simulate at
// the command's own seed, so their results are the same on every seed),
// and the request script of serve-mix, simulation seeds included. Where
// digests.json holds a digest for the workload and seed ("*" for every
// seed) the outputs must hash to it; otherwise the hash is printed so two
// builds can be compared.
//
// Usage (from the repository root, after building; see run.sh):
//
//	perfbench -workload paper-quick -seed 42 -seconds 30 -trace 0 -m3dd <binary> -out <dir>
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

//go:embed digests.json
var committedDigests []byte

// defaultSeed is the seed the committed digests cover.
const defaultSeed = 42

var workloads = []string{"paper-quick", "fig6-sampled", "serve-mix"}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "workload to run: paper-quick, fig6-sampled or serve-mix")
	seed := flag.Int64("seed", defaultSeed, "workload seed; every input is derived from it")
	seconds := flag.Int("seconds", 30, "how long the timed phase should take, in seconds")
	traceFlag := flag.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	m3dd := flag.String("m3dd", "", "m3dd binary (serve-mix)")
	outDir := flag.String("out", ".bench_build/perfbench", "directory for run records, spans and daemon state")
	root := flag.String("root", ".", "repository root, for the host stamp's source hash")
	flag.Parse()
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		return errors.New("-seconds must be >= 1 and -trace 0 or 1")
	}
	traced := *traceFlag == 1
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}

	stamp := newHostStamp(*root)
	cpu0 := readCPUStat()
	var out *outcome
	var err error
	switch *workload {
	case "paper-quick", "fig6-sampled":
		out, err = runCLI(newCLIWorkload(*workload == "fig6-sampled", *seed, *seconds), traced)
	case "serve-mix":
		if *m3dd == "" {
			return errors.New("serve-mix needs -m3dd")
		}
		stop := make(chan os.Signal, 1)
		signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
		out, err = runServe(*m3dd, *outDir, *seed, traced, stop)
	default:
		return fmt.Errorf("unknown workload %q (want one of %v)", *workload, workloads)
	}
	if err != nil {
		return err
	}
	stamp.StealFrac = stealFrac(cpu0, readCPUStat())

	checkDigest(out, *workload, *seed)
	res := result{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	if res.Attempted < 1 {
		return errors.New("no operation attempted")
	}
	if traced {
		out.layer["failed_frac"] = float64(out.failed) / float64(out.attempted)
		out.layer["host.steal_frac"] = stamp.StealFrac
		out.layer["host.nproc"] = float64(stamp.NProc)
		out.layer["host.gomaxprocs"] = float64(stamp.GOMAXPROCS)
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{out.layer[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			v, ok := out.e2e[m.name]
			if !ok || v <= 0 {
				return fmt.Errorf("end-to-end metric %s measured %v", m.name, v)
			}
			res.Metrics[m.name] = metricValue{v, m.unit}
		}
	}

	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	record := struct {
		Workload string    `json:"workload"`
		Seed     int64     `json:"seed"`
		Seconds  int       `json:"seconds"`
		Traced   bool      `json:"traced"`
		Time     time.Time `json:"time"`
		Host     hostStamp `json:"host"`
		Digest   string    `json:"digest"`
		Problems []string  `json:"problems,omitempty"`
		Samples  any       `json:"samples"`
		Result   result    `json:"result"`
	}{*workload, *seed, *seconds, traced, time.Now().UTC(), stamp, out.digest, out.problems, out.samples, res}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d", *workload, *seed, *traceFlag, time.Now().UnixNano())
	raw, err := json.MarshalIndent(record, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(*outDir, name+".json"), raw, 0o644); err != nil {
		return err
	}
	if traced {
		if err := out.spans.write(filepath.Join(*outDir, name+".spans.json")); err != nil {
			return err
		}
	}
	host, _ := json.Marshal(record.Host)
	fmt.Printf("host %s\n", host)
	fmt.Printf("digest %s seed %d: %s\n", *workload, *seed, out.digest)
	fmt.Printf("record %s\n", filepath.Join(*outDir, name+".json"))
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// checkDigest compares the run's output digest with the committed one for
// its workload and seed, when there is one.
func checkDigest(out *outcome, workload string, seed int64) {
	var table map[string]map[string]string
	if err := json.Unmarshal(committedDigests, &table); err != nil {
		out.check(false, "digests.json: %v", err)
		return
	}
	want, ok := table[workload][strconv.FormatInt(seed, 10)]
	if !ok {
		if want, ok = table[workload]["*"]; !ok {
			return
		}
	}
	out.check(out.digest == want, "output digest %s, committed digest %s", out.digest, want)
}
