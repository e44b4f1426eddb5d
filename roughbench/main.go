// Command roughbench is the end-to-end and per-layer benchmark of
// roughsim. It drives the library from outside, through the roughsim
// facade and an in-process roughsimd handler on loopback, on one of
// three named workloads:
//
//	fft-point        one paper-resolution RunSweep on the FFT-operator path
//	broadband-sweep  one 16-point RunSweep on the interpolated dense path
//	service-mix      a closed loop of /k reads, sweep and sparams writes
//
// Every operation's output is checked; a wrong output counts as a
// failed operation. The last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with -trace 0, the per-layer ledger with -trace 1. The line
// before it is a provenance record (commit, CPU, GOMAXPROCS, Go
// version, seed, sample counts).
//
// Usage (from the repository root, normally through run.sh):
//
//	roughbench -workload fft-point -seed 1 -seconds 20 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// maxProcs pins the benchmark to the two-CPU shape its baselines were
// recorded on: two client goroutines, two server workers, GOMAXPROCS=2.
const maxProcs = 2

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to values.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line of standard output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// workDir holds everything a run writes (journals, caches, trace
// files), under the build directory run.sh uses.
const workDir = ".bench_build/run"

// options are the command-line inputs shared by every workload.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workDir  string // where the run writes journals, caches and trace files
	// setups is how many times service-mix times its set-up.
	setups int
}

// outcome is what a workload run reports back to main.
type outcome struct {
	attempted, failed int
	metrics           metricSet
	// samples is the sample count behind each percentile or median.
	samples map[string]int
	// detail carries workload facts that are not metrics (the chosen
	// input variant, the repeat share of the sweep pool, …).
	detail map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: metricSet{}, samples: map[string]int{}, detail: map[string]any{}}
}

// fail records one failed operation with its reason on standard error.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	fmt.Fprintf(os.Stderr, "roughbench: failed operation: "+format+"\n", args...)
}

var workloads = map[string]func(context.Context, options) (*outcome, error){
	wFFTPoint:  runSweepWorkload,
	wBroadband: runSweepWorkload,
	wService:   runService,
}

func main() {
	var o options
	var traced int
	var mkref string
	flag.StringVar(&o.workload, "workload", "", "workload: fft-point, broadband-sweep or service-mix")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured phase length in seconds")
	flag.IntVar(&traced, "trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end metrics")
	flag.StringVar(&mkref, "mkref", "", "recompute the committed references of a sweep workload through the exact path and print them")
	flag.Parse()
	runtime.GOMAXPROCS(maxProcs)
	o.trace = traced == 1
	o.workDir = workDir
	o.setups = serviceSetups

	if mkref != "" {
		if err := printReferences(context.Background(), mkref); err != nil {
			fmt.Fprintln(os.Stderr, "roughbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[o.workload]
	if !ok || (traced != 0 && traced != 1) || !(o.seconds > 0) {
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "roughbench:", err)
		os.Exit(1)
	}
	start := time.Now()
	out, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "roughbench:", err)
		os.Exit(1)
	}
	prov := provenance(o)
	prov["samples"] = out.samples
	prov["detail"] = out.detail
	prov["run_seconds"] = time.Since(start).Seconds()
	if err := emit(os.Stdout, prov, out); err != nil {
		fmt.Fprintln(os.Stderr, "roughbench:", err)
		os.Exit(1)
	}
}

// emit prints the provenance line and then the result line.
func emit(w *os.File, prov map[string]any, out *outcome) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"provenance": prov}); err != nil {
		return err
	}
	return enc.Encode(result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	})
}
