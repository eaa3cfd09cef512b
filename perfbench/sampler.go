package main

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/replication"
	"repro/internal/sim"
)

// rpoPeriod is the virtual sampling period of the backup-staleness series.
const rpoPeriod = 5 * time.Millisecond

// rpoSampler samples the RPO of every active tenant on a fixed virtual
// period. It runs as an Env.OnAdvance observer, so it reads state between
// instants and never adds an event to the schedule. Each tenant's engines
// are resolved once when it activates — a per-sample core.System.RPO would
// re-resolve them through the replication plugin's name lookup every time —
// and a tenant leaves the active set when it fails over or finishes, so a
// sample costs O(active tenants).
type rpoSampler struct {
	period time.Duration
	next   time.Duration
	active []*sampledTenant
	out    *metrics.Histogram
}

type sampledTenant struct {
	groups []replication.Replicator
	on     bool
}

func newRPOSampler(env *sim.Env, period time.Duration, out *metrics.Histogram) *rpoSampler {
	s := &rpoSampler{period: period, out: out}
	env.OnAdvance(s.observe)
	return s
}

// activate starts sampling a tenant's engines from the current instant.
func (s *rpoSampler) activate(now time.Duration, groups []replication.Replicator) *sampledTenant {
	t := &sampledTenant{groups: groups, on: true}
	if len(s.active) == 0 {
		s.next = now - now%s.period + s.period
	}
	s.active = append(s.active, t)
	return t
}

// deactivate stops sampling the tenant; it is dropped from the active set
// at the next sample.
func (t *sampledTenant) deactivate() { t.on = false }

// observe records one sample per active tenant for every sample instant in
// [from, to): the state observed is the drained state of instant from,
// which holds until to.
func (s *rpoSampler) observe(from, to time.Duration) {
	for len(s.active) > 0 && s.next < to {
		live := s.active[:0]
		for _, t := range s.active {
			if !t.on {
				continue
			}
			live = append(live, t)
			var worst time.Duration
			for _, g := range t.groups {
				worst = max(worst, g.RPO(s.next))
			}
			s.out.Record(worst)
		}
		clear(s.active[len(live):])
		s.active = live
		s.next += s.period
	}
}
