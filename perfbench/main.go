// Command perfbench is the repository benchmark. It runs one named
// workload — the paper's exhibit suite or one of three fleet
// configurations — for a fixed time in a single process, checks every
// output against a reference, and prints one JSON result line last:
//
//	bash perfbench/run.sh --workload fleet-lossless --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, measured
// with all telemetry off. With --trace 1 the run is the per-layer
// sweep instead: isolated timings of each module's public calls, the
// exhibit and dataset timings, and a flight-recorded run of the
// workload's fleet (see README.md). Any failed correctness gate makes
// the command exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts the operations a run attempted and the ones that
// failed a correctness gate; every failure is also printed to stderr.
type tally struct {
	attempted, failed int
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
}

// env is what every workload needs from the command line.
type env struct {
	seed    uint64
	seconds time.Duration
	workdir string // where file-backed NVM directories are made
	metrics map[string]metric
	tally
}

func (e *env) set(name string, v float64, unit string) {
	e.metrics[name] = metric{Value: v, Unit: unit}
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: exhibits, fleet-lossless, fleet-chaos or fleet-nvm")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "measurement time per run")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer sweep")
	workdir := flag.String("workdir", ".bench_build", "directory for temporary file-backed NVM state")
	probe := flag.Bool("setup-probe", false, "internal: set up the exhibit suite, announce readiness, exit")
	flag.Parse()

	// One process, one scheduler slot per CPU, whatever the machine.
	runtime.GOMAXPROCS(runtime.NumCPU())

	if *probe {
		return setupProbe(*seed)
	}
	spec, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		flag.Usage()
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	e := &env{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		workdir: *workdir,
		metrics: map[string]metric{},
	}
	var err error
	switch {
	case *trace == 1:
		err = traceRun(e, spec)
	case spec == nil:
		err = measureExhibits(e)
	default:
		err = measureFleet(e, spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	res := result{
		Correct:   e.failed == 0,
		Attempted: e.attempted,
		Failed:    e.failed,
		Metrics:   e.metrics,
	}
	printSummary(*name, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// printSummary prints the metrics one per line ahead of the JSON
// result, for a reader at a terminal.
func printSummary(name string, res result) {
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("perfbench %s: attempted %d failed %d error_rate %g\n",
		name, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	for _, k := range keys {
		fmt.Printf("  %-44s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}
