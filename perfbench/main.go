// Command perfbench is the repository's system benchmark. It drives
// core.System directly on the sequential kernel through one named workload,
// checks every output for correctness, and prints the end-to-end metrics
// (--trace 0) or the per-layer metrics of a traced, profiled run
// (--trace 1). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.py, which builds it from source:
//
//	python3 perfbench/run.py --workload fleet --seed 1 --seconds 20 --trace 0
//
// PERFBENCH_PPROF takes profiling switches in the style of the kopia stress
// harness, separated by colons: "cpu" profiles every run (a traced run
// always does), "heap" or "heap=rate=N" writes a heap profile at the end.
// Profiles and span dumps go to .bench_out/ in the working directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// outDir receives profiles and span dumps, relative to the working directory.
const outDir = ".bench_out"

func main() {
	name := flag.String("workload", "", "workload to run: fleet, drain, snapshot-read, or all of them in turn")
	seed := flag.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := flag.Int("seconds", 20, "host seconds to measure for")
	trace := flag.Int("trace", 0, "1 runs the traced, profiled pass and reports per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

// pprofSwitches parses PERFBENCH_PPROF.
type pprofSwitches struct {
	cpu      bool
	heap     bool
	heapRate int
}

func parsePprof(s string) (pprofSwitches, error) {
	var sw pprofSwitches
	for _, part := range strings.Split(s, ":") {
		key, arg, _ := strings.Cut(part, "=")
		switch key {
		case "":
		case "cpu":
			sw.cpu = true
		case "heap":
			sw.heap = true
			if arg != "" {
				rate, ok := strings.CutPrefix(arg, "rate=")
				n, err := strconv.Atoi(rate)
				if !ok || err != nil || n <= 0 {
					return sw, fmt.Errorf("PERFBENCH_PPROF: bad heap switch %q", part)
				}
				sw.heapRate = n
			}
		default:
			return sw, fmt.Errorf("PERFBENCH_PPROF: unknown switch %q", part)
		}
	}
	return sw, nil
}

// run runs the named workload, or every workload in turn for "all", and
// prints each report. It exits with status 1 when any output was wrong.
func run(name string, seed int64, budget time.Duration, traced bool) error {
	var selected []scenario
	for _, w := range workloads(fullSizes) {
		if name == w.name || name == "all" {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown workload %q", name)
	}
	sw, err := parsePprof(os.Getenv("PERFBENCH_PPROF"))
	if err != nil {
		return err
	}
	sw.cpu = sw.cpu || traced
	if sw.heapRate > 0 {
		runtime.MemProfileRate = sw.heapRate
	}
	if sw.cpu || sw.heap {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
	}
	correct := true
	for i := range selected {
		w := &selected[i]
		var res *result
		if traced {
			res, err = runTraced(w, seed, budget)
		} else {
			res, err = runMeasured(w, seed, budget, sw)
		}
		if err != nil {
			return err
		}
		if sw.heap {
			if err := writeHeapProfile(filepath.Join(outDir, w.name+"-heap.pprof")); err != nil {
				return err
			}
		}
		res.print(os.Stdout, w.name, traced)
		correct = correct && res.correct()
	}
	if !correct {
		os.Exit(1)
	}
	return nil
}

// runMeasured is the untraced run: iterations repeat the workload's seeded
// inputs until the budget is spent.
func runMeasured(w *scenario, seed int64, budget time.Duration, sw pprofSwitches) (*result, error) {
	stop, err := startCPUProfile(sw.cpu, filepath.Join(outDir, w.name+"-cpu.pprof"))
	if err != nil {
		return nil, err
	}
	res := measure(w, seed, budget, nil)
	if err := stop(); err != nil {
		return nil, err
	}
	return res, nil
}

// measure runs iterations until budget has passed and at least w.iters
// have run. Iteration i uses seed index i mod w.iters, so the first
// w.iters iterations define the virtual-time metrics and a longer run
// repeats the same inputs for the host metrics.
func measure(w *scenario, seed int64, budget time.Duration, tr *tracer) *result {
	res := &result{}
	start := time.Now()
	for i := 0; i < w.iters || time.Since(start) < budget; i++ {
		it := w.run(iterSeed(seed, i%w.iters), tr)
		res.add(it, i < w.iters)
		tr.endIteration()
	}
	return res
}

// iterSeed derives the seed of one iteration from the run's seed.
func iterSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// runTraced is the per-layer run. It measures the workload twice over the
// same inputs, first traced and CPU-profiled, then plain, so the tracing
// overhead is the ratio of the two ops_per_s; each gets half the budget.
func runTraced(w *scenario, seed int64, budget time.Duration) (*result, error) {
	tr := newTracer()
	prof := filepath.Join(outDir, w.name+"-cpu.pprof")
	stop, err := startCPUProfile(true, prof)
	if err != nil {
		return nil, err
	}
	traced := measure(w, seed, budget/2, tr)
	if err := stop(); err != nil {
		return nil, err
	}
	plain := measure(w, seed, budget/2, nil)

	shares, err := attributeProfile(prof)
	if err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(outDir, w.name+"-spans.json"))
	if err != nil {
		return nil, err
	}
	if err := tr.writeSpans(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	traced.layer = shares
	traced.spans = tr.summarize()
	traced.plainOpsPerSec = plain.opsPerSec()
	traced.attempted += plain.attempted
	traced.failed += plain.failed
	traced.problems = append(traced.problems, plain.problems...)
	return traced, nil
}

// startCPUProfile starts the CPU profiler when on is set and returns the
// function that stops it and closes the file.
func startCPUProfile(on bool, path string) (func() error, error) {
	if !on {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// jsonResult is the last line of standard output.
type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func encodeResult(r jsonResult) string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // only float NaN/Inf can fail, and metrics never produce them
	}
	return string(b)
}
