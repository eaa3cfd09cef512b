package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// testSizes keep the self-checks fast.
var testSizes = sizes{
	fleetTenants: 16, fleetOrders: 4,
	drainTenants: 2, drainWrites: 256, drainWindow: fullSizes.drainWindow,
	snapTenants: 4, snapOps: 40,
}

// runSeeded runs only the seeded iterations of a workload.
func runSeeded(t *testing.T, w scenario, seed int64) map[string]float64 {
	t.Helper()
	res := measure(&w, seed, 0, nil)
	if !res.correct() {
		t.Fatalf("%s seed %d: %d of %d failed: %v", w.name, seed, res.failed, res.attempted, res.problems)
	}
	return res.virtual()
}

// TestDeterminism checks that every virtual-time metric and exact counter
// repeats for the same seed and that another seed changes them.
func TestDeterminism(t *testing.T) {
	for _, w := range workloads(testSizes) {
		t.Run(w.name, func(t *testing.T) {
			a, b := runSeeded(t, w, 7), runSeeded(t, w, 7)
			if !reflect.DeepEqual(a, b) {
				for k := range a {
					if a[k] != b[k] {
						t.Errorf("%s: %v then %v with the same seed", k, a[k], b[k])
					}
				}
			}
			if c := runSeeded(t, w, 8); reflect.DeepEqual(a, c) {
				t.Errorf("seeds 7 and 8 give identical metrics; the seed does not reach the inputs")
			}
		})
	}
}

// TestDrainSeesWindow checks that the benchmark sees the fabric's
// pipelined dispatch: drain at window 1 must be slower than at the drain
// workload's own window by more than the bound BENCHMARK.json gives
// drain_mb_per_s.
func TestDrainSeesWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the drain workload at full size")
	}
	bound := -1.0
	for _, m := range readSpec(t).EndToEnd {
		if m.Name == "drain_mb_per_s" {
			bound = m.Bound
		}
	}
	if bound < 0 {
		t.Fatal("BENCHMARK.json has no drain_mb_per_s")
	}
	rate := func(window int) float64 {
		w := scenario{name: "drain", iters: 3, run: func(seed int64, tr *tracer) *iteration {
			return runDrain(fullSizes, seed, tr, window)
		}}
		return runSeeded(t, w, 1)["drain_mb_per_s"]
	}
	own, one := rate(fullSizes.drainWindow), rate(1)
	t.Logf("drain_mb_per_s: window %d %.2f, window 1 %.2f", fullSizes.drainWindow, own, one)
	if one >= own*(1-bound) {
		t.Errorf("window 1 drains at %.2f MB/s, not below %.2f MB/s (window %d rate minus bound %.2f)",
			one, own*(1-bound), fullSizes.drainWindow, bound)
	}
}

// spec is the part of BENCHMARK.json the tests check.
type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
		Bound      float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBenchmarkJSONMatchesOutput checks that BENCHMARK.json declares
// exactly the workloads and metrics the benchmark prints, with the same
// units.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	s := readSpec(t)
	var names, declared []string
	for _, w := range workloads(fullSizes) {
		names = append(names, w.name)
	}
	for _, w := range s.Workloads {
		declared = append(declared, w.Name)
	}
	if !reflect.DeepEqual(names, declared) {
		t.Errorf("workloads: BENCHMARK.json %v, benchmark %v", declared, names)
	}
	var e2e []metricDef
	for _, m := range s.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	var layer []metricDef
	for _, m := range s.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json %v, benchmark %v", e2e, endToEnd)
	}
	if want := append(append([]metricDef(nil), perLayer...), cpuShareMetrics()...); !reflect.DeepEqual(layer, want) {
		t.Errorf("per_layer: BENCHMARK.json %v, benchmark %v", layer, want)
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.memclrNoHeapPointers", "repro/internal/storage.(*Snapshot).ReadRange", "repro/internal/db.(*View).preload"}, "storage"},
		{[]string{"repro/internal/db.(*View).Scan", "repro/internal/consistency.Verify", "main.verifyOLTP"}, "verify"},
		{[]string{"repro/internal/replication.(*Group).RPO", "main.(*rpoSampler).observe", "repro/internal/sim.(*Env).advanceTo"}, "sampler"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"repro/internal/metrics.(*Histogram).Record", "main.(*instance).order"}, "other"},
		{[]string{"sort.Float64s", "main.median"}, "bench"},
		{[]string{"runtime.futex", "runtime.schedule"}, "other"},
	}
	for _, c := range cases {
		if got := bucketOf(c.frames); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}
