package replication

import (
	"fmt"
	"time"

	"repro/internal/telemetry"
)

// Instrument registers the engine's telemetry: the tenant's RPO and total
// backlog, per-lane staged bytes and shard backlog, an epoch
// seal-to-commit latency histogram, and spans over epoch drains and reshard
// migration windows. Lanes added by a later Reshard register their probes
// on creation; retiring lanes stop reporting once reaped. No-op when reg is
// nil.
func (g *ShardedGroup) Instrument(reg *telemetry.Registry, tenant string) {
	if reg == nil {
		return
	}
	g.tel, g.tenant = reg, tenant
	g.laneGen = make(map[int]int)
	g.epochLatency = reg.Histogram("epoch.commit.latency", telemetry.L("tenant", tenant))
	live := func() bool { return !g.stopped && !g.failedOver }
	reg.Probe("rpo", func(now time.Duration) (float64, bool) {
		return float64(g.RPO(now)), live()
	}, telemetry.L("tenant", tenant))
	reg.Probe("backlog.records", func(time.Duration) (float64, bool) {
		return float64(g.backlogRecords()), live()
	}, telemetry.L("tenant", tenant))
	for _, l := range g.lanes {
		g.instrumentLane(l)
	}
}

// instrumentLane registers one lane's probes. A shrink-then-grow reshard
// sequence can re-create a lane index whose retired predecessor already
// owns the probe key, so re-registrations carry a generation suffix — each
// lane object gets its own timeline.
func (g *ShardedGroup) instrumentLane(l *drainLane) {
	if g.tel == nil {
		return
	}
	gen := g.laneGen[l.idx]
	g.laneGen[l.idx] = gen + 1
	laneLabel := fmt.Sprintf("%d", l.idx)
	if gen > 0 {
		laneLabel = fmt.Sprintf("%d#%d", l.idx, gen)
	}
	labels := []telemetry.Label{
		telemetry.L("tenant", g.tenant),
		telemetry.L("lane", laneLabel),
	}
	live := func() bool { return !g.stopped && !l.retire.Triggered() }
	g.tel.Probe("lane.staged.bytes", func(time.Duration) (float64, bool) {
		var b int
		for _, r := range l.staged {
			b += r.SizeBytes()
		}
		return float64(b), live()
	}, labels...)
	g.tel.Probe("lane.pending.records", func(time.Duration) (float64, bool) {
		return float64(l.journal.Pending() + l.inflight), live()
	}, labels...)
}
