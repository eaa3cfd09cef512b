package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/storage"
)

// horizon bounds one iteration's measured phase in virtual time. Every
// workload finishes well inside it; hitting it is reported as a failure.
const horizon = 2 * time.Hour

// scenario is one named workload, an input set of the benchmark. run builds
// a fresh system for one iteration, drives it through the three phases and
// returns what was observed.
type scenario struct {
	name string
	// iters is how many seeded iterations feed the virtual-time metrics and
	// the exact counters. Later iterations repeat these seeds, so the host
	// metrics of a longer run measure the same inputs again.
	iters int
	run   func(seed int64, tr *tracer) *iteration
}

// iteration is everything one system instance reported. The host fields
// depend on the machine; everything else depends only on the seed.
type iteration struct {
	setupHost, measureHost, verifyHost time.Duration
	mallocs, allocBytes, liveHeap      uint64
	gcCycles                           uint32
	gcPause                            time.Duration

	// attempted and failed count workload operations plus correctness
	// checks; problems names each failure.
	attempted, failed int64
	problems          []string

	// ops is the number of workload operations of the measured phase.
	ops int64
	// Virtual-time samples, pooled across iterations.
	orderLat, rpo, provision, failover, analytics, catchup, viewReplay *metrics.Histogram
	failback                                                           time.Duration
	// drainBytes were applied at the backup over drainSpan.
	drainBytes int64
	drainSpan  time.Duration
	// counters are exact per-layer counts taken after the measured phase.
	counters map[string]float64
}

func newIteration() *iteration {
	return &iteration{
		orderLat:   metrics.NewHistogram(),
		rpo:        metrics.NewHistogram(),
		provision:  metrics.NewHistogram(),
		failover:   metrics.NewHistogram(),
		analytics:  metrics.NewHistogram(),
		catchup:    metrics.NewHistogram(),
		viewReplay: metrics.NewHistogram(),
		counters:   make(map[string]float64),
	}
}

// fail records a failed operation or correctness check.
func (it *iteration) fail(format string, args ...any) {
	it.failed++
	it.problems = append(it.problems, fmt.Sprintf(format, args...))
}

// check records one correctness check and its outcome.
func (it *iteration) check(ok bool, format string, args ...any) {
	it.attempted++
	if !ok {
		it.fail(format, args...)
	}
}

// instance is one system under test plus the benchmark's bookkeeping for it.
// Tenant processes provision, then park at gate; the host triggers it once
// the whole roster is ready, which splits set-up from the measured phase.
type instance struct {
	sys *core.System
	it  *iteration
	tr  *tracer
	rpo *rpoSampler
	// rng generates the workload's inputs. The kernel is sequential, so
	// the draw order, and with it every input, is fixed by the seed.
	rng *rand.Rand

	gate    *sim.Event
	arrived int
	tenants int
	// done fires when all workers, the processes that carry the load, have
	// finished.
	done              *sim.Event
	workers, finished int
	// released is the virtual time the measured phase began.
	released time.Duration
	// caughtUp is the latest virtual time a tenant's backup caught up.
	caughtUp time.Duration

	// groups are the forward replication engines of every tenant, resolved
	// once after set-up.
	groups []replication.Replicator
	// dbs are the main-site databases of every tenant.
	dbs []*db.DB

	// rows and queries count analytics work.
	rows, queries int64

	// Baselines taken when the gate opens, and the volumes and bytes user
	// writes are counted from.
	stats0      sim.Stats
	applied0    int64
	arrayBytes0 int64
	userWrites0 int64
	userVolumes []*storage.Volume
	directBytes int64 // user bytes the benchmark wrote to volumes itself (drain)
}

func newInstance(cfg core.Config, tenants, workers int, tr *tracer) *instance {
	sys := core.NewSystem(cfg)
	in := &instance{
		sys:     sys,
		it:      newIteration(),
		tr:      tr,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		gate:    sys.Env.NewEvent(),
		done:    sys.Env.NewEvent(),
		tenants: tenants,
		workers: workers,
	}
	in.rpo = newRPOSampler(sys.Env, rpoPeriod, in.it.rpo)
	return in
}

// arrive parks a provisioned tenant at the start gate. A tenant whose
// provisioning failed arrives without waiting so it does not strand the
// roster.
func (in *instance) arrive(p *sim.Proc, wait bool) {
	in.arrived++
	if wait {
		p.Wait(in.gate)
	}
}

// think pauses a client for an exponentially distributed time.
func (in *instance) think(p *sim.Proc, mean time.Duration) {
	p.Sleep(time.Duration(in.rng.ExpFloat64() * float64(mean)))
}

// finish marks one worker's load complete.
func (in *instance) finish(p *sim.Proc) {
	in.finished++
	if in.finished == in.workers {
		p.Trigger(in.done)
	}
}

// noteCaughtUp records that a tenant's backup caught up at the current
// virtual time.
func (in *instance) noteCaughtUp(now time.Duration) {
	if now > in.caughtUp {
		in.caughtUp = now
	}
}

// execute runs the three phases of one iteration: set-up until the roster
// is parked at the gate, the measured phase until the environment idles,
// and verify, a host function the workload supplies. Host time and
// allocation are measured around the measured phase only.
func (in *instance) execute(setupStart time.Time, verify func()) *iteration {
	it, env := in.it, in.sys.Env
	env.Run(0)
	it.setupHost = time.Since(setupStart)
	if in.arrived != in.tenants {
		it.fail("set-up: %d of %d tenants reached the start gate", in.arrived, in.tenants)
	}
	in.snapshotBaseline()

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	in.released = env.Now()
	in.gate.Trigger()
	env.Run(env.Now() + horizon)
	it.measureHost = time.Since(start)
	runtime.ReadMemStats(&m1)
	it.mallocs = m1.Mallocs - m0.Mallocs
	it.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	it.gcCycles = m1.NumGC - m0.NumGC
	it.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	in.collectCounters()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	it.liveHeap = m1.HeapAlloc
	if !in.done.Triggered() {
		// The load is still running: verifying or draining it would run it
		// on, so the iteration is reported as failed and abandoned.
		it.fail("measured phase: %d of %d workers finished before the horizon", in.finished, in.workers)
		return it
	}

	vstart := time.Now()
	verify()
	it.verifyHost = time.Since(vstart)

	in.sys.Stop()
	env.Run(0)
	return it
}

// snapshotBaseline records the counters the measured phase is reported
// against, so set-up work (initial copy, provisioning) is excluded.
func (in *instance) snapshotBaseline() {
	in.stats0 = in.sys.Env.Stats()
	for _, g := range in.groups {
		in.applied0 += g.AppliedBytes()
	}
	in.arrayBytes0 = in.sys.Main.Array.BytesWritten() + in.sys.Backup.Array.BytesWritten()
	for _, v := range in.userVolumes {
		in.userWrites0 += v.Writes()
	}
}

// forwardPaths lists every forward fabric path the tenants drained over.
func (in *instance) forwardPaths() []*fabric.TenantPath {
	var out []*fabric.TenantPath
	for _, g := range in.groups {
		ns := in.sys.Replication.NamespaceOf(g)
		if tp := in.sys.TenantPath(ns); tp != nil {
			out = append(out, tp)
		}
		for _, lp := range in.sys.TenantLanePaths(ns) {
			if lp != nil {
				out = append(out, lp)
			}
		}
	}
	return out
}

// collectCounters reads every layer's public counters after the measured
// phase.
func (in *instance) collectCounters() {
	sys, it, c := in.sys, in.it, in.it.counters
	ops := float64(max(it.ops, 1))
	st := sys.Env.Stats()
	c["sim.heap_pushes"] = float64(st.HeapPushes-in.stats0.HeapPushes) / ops
	c["sim.fifo_bypasses"] = float64(st.FifoBypasses-in.stats0.FifoBypasses) / ops
	c["sim.handoffs"] = float64(st.Handoffs-in.stats0.Handoffs) / ops
	c["sim.inline_steps"] = float64(st.InlineSteps-in.stats0.InlineSteps) / ops
	c["sim.timer_cancels"] = float64(st.TimerCancels-in.stats0.TimerCancels) / ops

	c["platform.api_calls"] = float64(sys.Main.API.Calls()+sys.Backup.API.Calls()) / float64(max(in.tenants, 1))
	c["csiplugin.provisioned"] = float64(sys.Provisioner.Provisioned())
	c["operator.configured"] = float64(sys.Operator.Configured())

	var commits, walWrites, flushes, checkpoints int64
	for _, d := range in.dbs {
		commits += d.Commits()
		walWrites += d.WALWrites()
		flushes += d.PageFlushes()
		checkpoints += d.Checkpoints()
	}
	perCommit := float64(max(commits, 1))
	c["db.commits"] = float64(commits)
	c["db.wal_writes"] = float64(walWrites) / perCommit
	c["db.page_flushes"] = float64(flushes) / perCommit
	c["db.checkpoints"] = float64(checkpoints) / perCommit

	userBytes := in.directBytes
	for _, v := range in.userVolumes {
		userBytes += v.Writes() * int64(v.BlockSize())
	}
	userBytes -= in.userWrites0 * int64(sys.Main.Array.Config().BlockSize)
	arrayBytes := sys.Main.Array.BytesWritten() + sys.Backup.Array.BytesWritten() - in.arrayBytes0
	c["storage.write_amp"] = float64(arrayBytes) / float64(max(userBytes, 1))

	var appended, drained, overflows, appliedRecs, appliedBytes, epochs int64
	for _, g := range in.groups {
		switch e := g.(type) {
		case *replication.Group:
			appended += e.Journal().Appended()
			drained += e.Journal().Drained()
			overflows += e.Journal().Overflows()
		case *replication.ShardedGroup:
			appended += e.Journal().Appended()
			drained += e.Journal().Drained()
			overflows += e.Journal().Overflows()
			epochs += e.EpochCommits()
		}
		appliedRecs += g.AppliedRecords()
		appliedBytes += g.AppliedBytes()
	}
	c["journal.appended"] = float64(appended)
	c["journal.drained"] = float64(drained)
	c["journal.overflows"] = float64(overflows)
	c["replication.applied_records"] = float64(appliedRecs)
	c["replication.applied_bytes"] = float64(appliedBytes)
	c["replication.epoch_commits"] = float64(epochs)
	it.drainBytes = appliedBytes - in.applied0
	it.drainSpan = in.caughtUp - in.released

	var cow int64
	for _, id := range sys.Backup.Array.ListVolumes() {
		if v, err := sys.Backup.Array.Volume(id); err == nil {
			cow += v.COWCopies()
		}
	}
	c["storage.cow_saved_blocks"] = float64(cow)
	c["analytics.rows_per_query"] = float64(in.rows) / float64(max(in.queries, 1))

	var transfers, drops int64
	for _, tp := range in.forwardPaths() {
		transfers += tp.Transfers()
		drops += tp.DropRetries()
	}
	c["fabric.transfers"] = float64(transfers)
	c["fabric.drops"] = float64(drops)
	c["fabric.drop_ratio"] = float64(drops) / float64(max(transfers+drops, 1))
	c["replication.records_per_transfer"] = float64(appliedRecs) / float64(max(transfers, 1))
	fwd := sys.Fabric.Forward
	maxQueued := 0
	for _, name := range fwd.Classes() {
		maxQueued = max(maxQueued, fwd.ClassStats(name).MaxQueued)
	}
	c["fabric.max_queued"] = float64(maxQueued)
	var pipelined, stalls, sent, retrans int64
	var bandwidth float64
	maxInflight := 0
	for i, l := range fwd.Links() {
		ws := fwd.LinkWindowStats(i)
		pipelined += ws.Pipelined
		stalls += ws.WindowStalls
		sent += l.SentBytes()
		retrans += l.Retransmits()
		bandwidth += l.Config().BandwidthBps
		maxInflight = max(maxInflight, l.MaxInFlight())
	}
	c["fabric.pipelined"] = float64(pipelined)
	c["fabric.window_stalls"] = float64(stalls)
	c["netlink.sent_bytes"] = float64(sent)
	c["netlink.retransmits"] = float64(retrans)
	c["netlink.max_inflight"] = float64(maxInflight)
	if it.drainSpan > 0 {
		c["netlink.utilization"] = float64(sent) / (bandwidth * it.drainSpan.Seconds())
	}
}

// checkLinks asserts per-link in-order delivery on every member link in
// both directions.
func checkLinks(it *iteration, ic *fabric.Interconnect) {
	for _, f := range []*fabric.Fabric{ic.Forward, ic.Reverse} {
		for i, l := range f.Links() {
			it.check(l.OrderViolations() == 0, "netlink: %d order violations on member %d of %v", l.OrderViolations(), i, f)
		}
	}
}
