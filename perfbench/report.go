package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/metrics"
)

// result aggregates the iterations of one run.
type result struct {
	// det are the seeded iterations the virtual-time metrics and exact
	// counters come from.
	det []*iteration
	// Host values, one per iteration.
	setup, opsRate, allocsPerOp, bytesPerOp, liveHeap, verify, gcCycles, gcPause []float64

	attempted, failed int64
	problems          []string

	// Traced run only.
	layer          map[string]float64
	spans          []spanSummary
	plainOpsPerSec float64
}

// maxProblems bounds how many failure messages a run keeps.
const maxProblems = 20

func (r *result) add(it *iteration, det bool) {
	ops := float64(max(it.ops, 1))
	r.setup = append(r.setup, it.setupHost.Seconds())
	r.opsRate = append(r.opsRate, float64(it.ops)/it.measureHost.Seconds())
	r.allocsPerOp = append(r.allocsPerOp, float64(it.mallocs)/ops)
	r.bytesPerOp = append(r.bytesPerOp, float64(it.allocBytes)/ops)
	r.liveHeap = append(r.liveHeap, float64(it.liveHeap)/1e6)
	r.verify = append(r.verify, it.verifyHost.Seconds())
	r.gcCycles = append(r.gcCycles, float64(it.gcCycles))
	r.gcPause = append(r.gcPause, float64(it.gcPause)/1e6)
	r.attempted += it.attempted
	r.failed += it.failed
	for _, p := range it.problems {
		if len(r.problems) < maxProblems {
			r.problems = append(r.problems, p)
		}
	}
	if det {
		r.det = append(r.det, it)
	}
}

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

func (r *result) opsPerSec() float64 { return median(r.opsRate) }

// median returns the median of xs, 0 when it is empty.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// pooled merges one histogram of every seeded iteration.
func (r *result) pooled(get func(*iteration) *metrics.Histogram) *metrics.Histogram {
	h := metrics.NewHistogram()
	for _, it := range r.det {
		h.Merge(get(it))
	}
	return h
}

// virtual is the seed-determined part of a run: virtual-time metrics and
// exact counters, averaged or pooled over the seeded iterations. Two runs
// with the same seed produce identical maps.
func (r *result) virtual() map[string]float64 {
	v := map[string]float64{}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	orders := r.pooled(func(it *iteration) *metrics.Histogram { return it.orderLat })
	rpo := r.pooled(func(it *iteration) *metrics.Histogram { return it.rpo })
	prov := r.pooled(func(it *iteration) *metrics.Histogram { return it.provision })
	v["order_p50_ms"], v["order_p99_ms"] = ms(orders.Median()), ms(orders.P99())
	v["order.samples"] = float64(orders.Count())
	v["rpo_p50_ms"], v["rpo_p99_ms"] = ms(rpo.Median()), ms(rpo.P99())
	v["rpo.samples"] = float64(rpo.Count())
	v["core.provision_p50_ms"], v["core.provision_p99_ms"] = ms(prov.Median()), ms(prov.P99())
	v["failover_ms"] = ms(r.pooled(func(it *iteration) *metrics.Histogram { return it.failover }).Median())
	v["analytics_ms"] = ms(r.pooled(func(it *iteration) *metrics.Histogram { return it.analytics }).Median())
	v["replication.catchup_ms"] = ms(r.pooled(func(it *iteration) *metrics.Histogram { return it.catchup }).Median())
	v["db.view_replay_ms"] = ms(r.pooled(func(it *iteration) *metrics.Histogram { return it.viewReplay }).Median())
	var bytes int64
	var span, failback time.Duration
	for _, it := range r.det {
		bytes += it.drainBytes
		span += it.drainSpan
		failback += it.failback
		for k, x := range it.counters {
			v[k] += x / float64(len(r.det))
		}
	}
	if span > 0 {
		v["drain_mb_per_s"] = float64(bytes) / 1e6 / span.Seconds()
	}
	v["failback_ms"] = ms(failback / time.Duration(max(len(r.det), 1)))
	return v
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the bounded metrics every workload reports (BENCHMARK.json).
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"ops_per_s", "1/s"}, {"allocs_per_op", "count/op"},
	{"alloc_bytes_per_op", "B/op"}, {"live_heap_mb", "MB"},
	{"order_p50_ms", "ms"}, {"order_p99_ms", "ms"},
	{"rpo_p50_ms", "ms"}, {"rpo_p99_ms", "ms"}, {"drain_mb_per_s", "MB/s"},
}

// scenarioMetrics are end-to-end metrics that only some workloads produce
// (zero means not applicable); they are printed but carry no bound.
var scenarioMetrics = []metricDef{
	{"failover_ms", "ms"}, {"failback_ms", "ms"}, {"analytics_ms", "ms"}, {"failed_frac", "fraction"},
}

// perLayer are the traced run's metrics (BENCHMARK.json per_layer).
var perLayer = []metricDef{
	{"sim.heap_pushes", "count/op"}, {"sim.fifo_bypasses", "count/op"}, {"sim.handoffs", "count/op"},
	{"sim.inline_steps", "count/op"}, {"sim.timer_cancels", "count/op"},
	{"platform.api_calls", "count/tenant"}, {"csiplugin.provisioned", "count"}, {"operator.configured", "count"},
	{"core.provision_p50_ms", "ms"}, {"core.provision_p99_ms", "ms"},
	{"db.commits", "count"}, {"db.wal_writes", "count/commit"}, {"db.page_flushes", "count/commit"},
	{"db.checkpoints", "count/commit"},
	{"storage.write_amp", "B/B"}, {"journal.appended", "count"}, {"journal.drained", "count"},
	{"journal.overflows", "count"},
	{"storage.cow_saved_blocks", "count"}, {"db.view_replay_ms", "ms"}, {"analytics.rows_per_query", "count"},
	{"analytics.query_ms", "ms"},
	{"replication.applied_records", "count"}, {"replication.applied_bytes", "B"},
	{"replication.records_per_transfer", "count"}, {"replication.epoch_commits", "count"},
	{"replication.catchup_ms", "ms"},
	{"fabric.transfers", "count"}, {"fabric.drops", "count"}, {"fabric.drop_ratio", "fraction"},
	{"fabric.max_queued", "count"}, {"fabric.pipelined", "count"}, {"fabric.window_stalls", "count"},
	{"netlink.sent_bytes", "B"}, {"netlink.utilization", "fraction"}, {"netlink.max_inflight", "count"},
	{"netlink.retransmits", "count"},
	{"db.recovery_ms", "ms"}, {"failback.resync_ms", "ms"}, {"failback.delta_over_full_blocks", "fraction"},
	{"gc.cycles", "count"}, {"gc.pause_ms", "ms"}, {"verify_s", "s"},
	{"trace.ops_per_s_ratio", "ratio"}, {"trace.spans", "count"},
}

// values computes every metric of the run by name.
func (r *result) values() map[string]float64 {
	v := r.virtual()
	v["setup_s"] = median(r.setup)
	v["ops_per_s"] = r.opsPerSec()
	v["allocs_per_op"] = median(r.allocsPerOp)
	v["alloc_bytes_per_op"] = median(r.bytesPerOp)
	v["live_heap_mb"] = median(r.liveHeap)
	v["verify_s"] = median(r.verify)
	v["gc.cycles"] = median(r.gcCycles)
	v["gc.pause_ms"] = median(r.gcPause)
	v["failed_frac"] = float64(r.failed) / float64(max(r.attempted, 1))
	v["analytics.query_ms"] = v["analytics_ms"]
	v["db.recovery_ms"] = v["failover_ms"]
	v["failback.resync_ms"] = v["failback_ms"]
	if r.plainOpsPerSec > 0 {
		v["trace.ops_per_s_ratio"] = v["ops_per_s"] / r.plainOpsPerSec
	}
	var spans int
	for _, s := range r.spans {
		spans += s.count
	}
	v["trace.spans"] = float64(spans)
	for b, share := range r.layer {
		v[b+".cpu_share"] = share
	}
	var control float64
	for _, b := range controlBuckets {
		control += r.layer[b]
	}
	v["control.cpu_share"] = control
	return v
}

// cpuShareMetrics are the traced run's host-time rows.
func cpuShareMetrics() []metricDef {
	out := []metricDef{{"control.cpu_share", "fraction"}}
	for _, b := range cpuBuckets {
		out = append(out, metricDef{b + ".cpu_share", "fraction"})
	}
	return out
}

// print writes the human-readable report and then the JSON line.
func (r *result) print(w io.Writer, name string, traced bool) {
	v := r.values()
	report := endToEnd
	if traced {
		report = append(append([]metricDef(nil), perLayer...), cpuShareMetrics()...)
	}
	for _, d := range report {
		if x := v[d.name]; math.IsNaN(x) || math.IsInf(x, 0) {
			r.attempted++
			r.failed++
			r.problems = append(r.problems, fmt.Sprintf("metric %s is %v", d.name, x))
			v[d.name] = 0
		}
	}
	fmt.Fprintf(w, "perfbench %s: %d iterations (%d seeded), %d attempted, %d failed\n",
		name, len(r.setup), len(r.det), r.attempted, r.failed)
	for _, p := range r.problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
	defs := append(append([]metricDef(nil), endToEnd...), scenarioMetrics...)
	if traced {
		defs = append(append(defs, perLayer...), cpuShareMetrics()...)
	}
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.name, v[d.name], d.unit)
	}
	fmt.Fprintf(w, "  samples: %d orders, %d rpo\n", int(v["order.samples"]), int(v["rpo.samples"]))
	if traced {
		fmt.Fprintf(w, "  tracing: traced %.1f ops/s vs untraced %.1f ops/s\n", v["ops_per_s"], r.plainOpsPerSec)
		fmt.Fprintf(w, "  %-28s %8s %12s %12s %14s %12s\n", "span", "count", "virt p50", "virt p99", "virt self", "host total")
		for _, s := range r.spans {
			fmt.Fprintf(w, "  %-28s %8d %12v %12v %14v %12v\n", s.name, s.count, s.virtP50, s.virtP99,
				s.virtSelf, s.host.Round(time.Microsecond))
		}
	}

	out := jsonResult{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range report {
		out.Metrics[d.name] = jsonMetric{Value: v[d.name], Unit: d.unit}
	}
	fmt.Fprintln(w, encodeResult(out))
}
