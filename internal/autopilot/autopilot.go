// Package autopilot closes the loop from observed RPO to action. A single
// control process wakes on a fixed sim-time period, reads the telemetry
// plane's probed series (never the engines' internal state directly — the
// controller sees exactly what an operator's dashboard sees), and drives
// three effectors toward the declared platform.SLOClass targets:
//
//   - reshard-on-SLO: a tenant whose windowed worst RPO sits above its
//     class target gets another drain lane (Spec.JournalShards bumped; the
//     tenant reconcile loop performs the epoch-bounded live reshard); a
//     tenant comfortably below target gives a lane back. A hysteresis band
//     plus a per-tenant cooldown keeps the loop from thrashing.
//   - admission: when a protected class (RPOTarget > 0) breaches, the
//     shedable classes below it in AdmissionPriority are derated — their
//     fabric token-bucket rate halved per period down to a floor — and
//     restored by doubling once every protected class is comfortably
//     healthy again.
//   - placement: new drain lanes land on fabric member links chosen by a
//     PlacementPolicy (least-loaded-by-bytes default) instead of the
//     dispatchers' any-link default.
//
// Every action is appended to a decision log in simulation order; on the
// kernel's deterministic (at, seq) order the log is byte-identical across
// runs of one seed, which is how the autopilot's own behaviour is
// regression-tested (see TestAutopilotDeterminism).
package autopilot

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/platform"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Config tunes the control loop. The zero value is usable: every field
// defaults to the values documented on it.
type Config struct {
	// Period is the evaluation interval in sim time (default 500ms). Each
	// tick reads the telemetry registry and actuates at most one reshard
	// step per tenant and one admission step per shedable class.
	Period time.Duration
	// Window is the lookback over the probed RPO series for the windowed
	// worst value (default 2×Period). Longer windows smooth transients;
	// shorter ones react faster.
	Window time.Duration
	// ScaleUpFraction and ScaleDownFraction bound the hysteresis band as
	// fractions of the class RPOTarget: windowed RPO above up×target adds
	// a lane, below down×target removes one, anywhere between holds
	// (defaults 0.7 and 0.25). The wide gap is what prevents flapping.
	ScaleUpFraction   float64
	ScaleDownFraction float64
	// Cooldown is the minimum sim time between reshard actuations on one
	// tenant (default 2s) so a migration's own disruption is not read as
	// a fresh signal.
	Cooldown time.Duration
	// DerateFraction and RestoreFraction bound the admission hysteresis:
	// a protected class above derate×target sheds the bulk classes; all
	// protected classes must fall below restore×target before bulk rate
	// is given back (defaults 0.9 and 0.5).
	DerateFraction  float64
	RestoreFraction float64
	// MinRateBps floors the derated bulk rate (default 64 KiB/s) so shed
	// classes starve but never deadlock.
	MinRateBps float64
	// RestorePatience is how many consecutive all-healthy ticks a shedable
	// class must see before each restore step (default 4). Restoring is a
	// probe — giving rate back can re-breach the protected classes — so it
	// is paced far slower than derating, which acts on the next tick.
	RestorePatience int
	// Placement chooses the fabric member link for each new drain lane.
	// Nil installs LeastLoaded. Every PlaceLane answer is recorded in the
	// decision log.
	Placement core.PlacementPolicy
}

func (c Config) withDefaults() Config {
	if c.Period <= 0 {
		c.Period = 500 * time.Millisecond
	}
	if c.Window <= 0 {
		c.Window = 2 * c.Period
	}
	if c.ScaleUpFraction <= 0 {
		c.ScaleUpFraction = 0.7
	}
	if c.ScaleDownFraction <= 0 {
		c.ScaleDownFraction = 0.25
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2 * time.Second
	}
	if c.DerateFraction <= 0 {
		c.DerateFraction = 0.9
	}
	if c.RestoreFraction <= 0 {
		c.RestoreFraction = 0.5
	}
	if c.MinRateBps <= 0 {
		c.MinRateBps = 64 << 10
	}
	if c.RestorePatience <= 0 {
		c.RestorePatience = 4
	}
	return c
}

// demandDecay is the per-tick factor on the remembered peak throughput of a
// shedable class (half-life ~23 ticks).
const demandDecay = 0.97

// Decision is one autopilot action, recorded in simulation order.
type Decision struct {
	At     time.Duration
	Tenant string // namespace, or the fabric class for admission actions
	Action string // reshard-up | reshard-down | derate | restore | place-lane
	Detail string
}

// Autopilot owns the control process. Construct with New, arm with Start,
// disarm with Stop; read the audit trail with Decisions or FormatLog.
type Autopilot struct {
	sys *core.System
	cfg Config

	stop *sim.Event

	// inner is the configured placement policy (unwrapped); if it wants a
	// periodic utilization feed, each tick provides one.
	inner core.PlacementPolicy

	decisions []Decision

	lastReshard map[string]time.Duration // namespace → last actuation

	// Admission state, keyed by fabric class name.
	capBps    map[string]float64 // current cap; absent = not derated
	origBps   map[string]float64 // configured rate before the first derate
	demandBps map[string]float64 // peak measured throughput of the class
	lastBytes map[string]int64   // ClassStats.Bytes at the previous tick
	healthy   map[string]int     // consecutive all-healthy ticks while capped
}

// New wires an autopilot to the system. The system must have the telemetry
// plane enabled (Config.Telemetry) — the autopilot senses only through it.
// The placement policy is installed immediately so lanes provisioned before
// Start still land where the policy says; the control process itself does
// not run until Start.
func New(sys *core.System, cfg Config) (*Autopilot, error) {
	if sys.Telemetry == nil {
		return nil, fmt.Errorf("autopilot: system has no telemetry plane (set core.Config.Telemetry)")
	}
	a := &Autopilot{
		sys:         sys,
		cfg:         cfg.withDefaults(),
		stop:        sys.Env.NewEvent(),
		lastReshard: make(map[string]time.Duration),
		capBps:      make(map[string]float64),
		origBps:     make(map[string]float64),
		demandBps:   make(map[string]float64),
		lastBytes:   make(map[string]int64),
		healthy:     make(map[string]int),
	}
	a.inner = a.cfg.Placement
	if a.inner == nil {
		a.inner = &LeastLoaded{}
	}
	sys.SetPlacement(&loggingPlacement{a: a, inner: a.inner})
	return a, nil
}

// Start launches the control process: one tick every Period until Stop.
func (a *Autopilot) Start() {
	a.sys.Env.Process("autopilot", func(p *sim.Proc) {
		for {
			if p.WaitTimeout(a.stop, a.cfg.Period) {
				return
			}
			a.tick(p)
		}
	})
}

// Stop disarms the control loop. Call it before draining the event queue to
// quiescence (sim.Env.Run(0)) — an armed autopilot re-schedules itself
// forever. Safe to call more than once, and safe outside any process: it
// only triggers the stop event the control proc waits on.
func (a *Autopilot) Stop() { a.stop.Trigger() }

// Decisions returns the audit trail in simulation order.
func (a *Autopilot) Decisions() []Decision { return a.decisions }

// FormatLog renders the decision log one line per action — the byte-exact
// artifact the determinism test compares across replays.
func (a *Autopilot) FormatLog() string {
	var b strings.Builder
	for _, d := range a.decisions {
		fmt.Fprintf(&b, "%-12s %-14s %-12s %s\n", d.At, d.Tenant, d.Action, d.Detail)
	}
	return b.String()
}

func (a *Autopilot) record(at time.Duration, tenant, action, detail string) {
	a.decisions = append(a.decisions, Decision{At: at, Tenant: tenant, Action: action, Detail: detail})
}

// shardTarget is the pure hysteresis kernel: the desired lane count for a
// class given the current count and the windowed worst RPO. Above up×target
// grow by one (bounded by MaxShards); below down×target shrink by one
// (bounded by MinShards); inside the band hold. A class without an RPO SLO
// never moves.
func shardTarget(cls platform.SLOClass, up, down float64, cur int, winRPO time.Duration) int {
	if cls.RPOTarget <= 0 {
		return cur
	}
	t := float64(cls.RPOTarget)
	r := float64(winRPO)
	switch {
	case r > up*t && cur < cls.MaxShards:
		return cur + 1
	case r < down*t && cur > cls.MinShards:
		return cur - 1
	}
	return cur
}

// windowRPO returns the worst probed RPO for the namespace over the
// lookback window, and whether any sample exists. The probe records RPO as
// float64 nanoseconds.
func (a *Autopilot) windowRPO(ns string, now time.Duration) (time.Duration, bool) {
	s := a.sys.Telemetry.Series("rpo", telemetry.L("tenant", ns))
	if s == nil {
		return 0, false
	}
	from := now - a.cfg.Window
	if from < 0 {
		from = 0
	}
	worst, seen := 0.0, false
	for _, pt := range s.Window(from, now) {
		if !seen || pt.Value > worst {
			worst, seen = pt.Value, true
		}
	}
	return time.Duration(worst), seen
}

// tick is one evaluation: sense every SLO-classed tenant, actuate reshard
// steps, then run the admission sweep. All iteration is in sorted order
// (the API server's List is namespace-sorted, SLOClasses is name-sorted) so
// the decision log is a pure function of the simulation schedule.
func (a *Autopilot) tick(p *sim.Proc) {
	now := p.Now()
	// Feed the placement policy its periodic utilization observation first,
	// so a reshard actuated this very tick places lanes on fresh data.
	if o, ok := a.inner.(interface{ Observe(*fabric.Fabric) }); ok {
		o.Observe(a.sys.Fabric.Forward)
	}
	// worstFrac[class] = max over the class's tenants of winRPO/target.
	worstFrac := make(map[string]float64)
	for _, obj := range a.sys.Main.API.List(p, platform.KindTenant, "") {
		tn := obj.(*platform.Tenant)
		ns := tn.Spec.Namespace
		cls, ok := a.sys.SLOClassFor(tn.Spec.SLOClass)
		if !ok {
			continue // no SLO declared: not the autopilot's to manage
		}
		winRPO, sampled := a.windowRPO(ns, now)
		if !sampled {
			continue // no evidence yet (still provisioning, or detached)
		}
		if cls.RPOTarget > 0 {
			if frac := float64(winRPO) / float64(cls.RPOTarget); frac > worstFrac[cls.Name] {
				worstFrac[cls.Name] = frac
			}
		}
		a.reshardStep(p, now, ns, cls, winRPO)
	}
	a.admissionStep(now, worstFrac)
}

// reshardStep actuates at most one lane step for one tenant: it screens for
// cooldown and for states where a reshard cannot (or must not) run, asks
// the hysteresis kernel for the target, and declares it on the spec. The
// declaration is non-blocking — the tenant reconcile loop performs the live
// migration while the autopilot moves on.
func (a *Autopilot) reshardStep(p *sim.Proc, now time.Duration, ns string, cls platform.SLOClass, winRPO time.Duration) {
	if last, ok := a.lastReshard[ns]; ok && now-last < a.cfg.Cooldown {
		return
	}
	gs := a.sys.Groups(ns)
	if len(gs) != 1 {
		return // per-volume journals: no shard structure to scale
	}
	g := gs[0]
	if g.FailedOver() || g.Stopped() {
		return
	}
	// A plain 1-lane engine is upgraded live by the reconcile loop, so only
	// an open migration window on a sharded engine defers the step.
	if sg, ok := g.(*replication.ShardedGroup); ok && sg.Resharding() {
		return
	}
	cur := g.Lanes()
	target := shardTarget(cls, a.cfg.ScaleUpFraction, a.cfg.ScaleDownFraction, cur, winRPO)
	if target == cur {
		return
	}
	// A low RPO while admission is actively shedding is borrowed headroom,
	// not surplus capacity: reclaiming lanes now would re-breach the moment
	// the shed class is restored, and the two effectors would chase each
	// other. Lanes are only given back once every cap has been lifted.
	if target < cur && len(a.capBps) > 0 {
		return
	}
	err := a.sys.UpdateTenantSpec(p, ns, func(s *platform.TenantSpec) {
		s.JournalShards = target
	})
	if err != nil {
		// Lost a race (tenant decommissioned, spec conflict storm): log
		// and let the next tick re-evaluate from fresh observations.
		a.record(now, ns, "reshard-skip", err.Error())
		return
	}
	action := "reshard-up"
	if target < cur {
		action = "reshard-down"
	}
	a.record(now, ns, action, fmt.Sprintf("lanes %d->%d (win rpo %s, target %s)", cur, target, winRPO, cls.RPOTarget))
	a.lastReshard[ns] = now
}

// admissionStep derates or restores every shedable class (RPOTarget == 0)
// against the health of the protected classes above it in priority.
// Throughput is measured from the fabric's own class byte counters — the
// cap halves from observed demand, not from a guess.
func (a *Autopilot) admissionStep(now time.Duration, worstFrac map[string]float64) {
	fwd := a.sys.Fabric.Forward
	classes := a.sys.SLOClasses()
	for _, sc := range classes {
		if sc.RPOTarget > 0 {
			continue // protected, never shed
		}
		fc := sc.FabricClass
		// Measured throughput this period for the shedable class; the peak
		// is tracked continuously so the first derate halves from observed
		// demand and a restore knows when the class is fully back.
		bytes := fwd.ClassStats(fc).Bytes
		deltaBps := float64(bytes-a.lastBytes[fc]) / a.cfg.Period.Seconds()
		a.lastBytes[fc] = bytes
		// Demand is a decaying peak of observed throughput: it must survive
		// the lumpiness of batched transfers (an instantaneous delta can be
		// zero mid-batch), but a stale burst must not pin the class capped
		// forever — full restore requires cap×2 to reach demand.
		if d := a.demandBps[fc] * demandDecay; deltaBps > d {
			a.demandBps[fc] = deltaBps
		} else {
			a.demandBps[fc] = d
		}

		breach, allHealthy := false, true
		for _, pc := range classes {
			if pc.RPOTarget <= 0 || pc.AdmissionPriority <= sc.AdmissionPriority {
				continue
			}
			if worstFrac[pc.Name] > a.cfg.DerateFraction {
				breach = true
			}
			if worstFrac[pc.Name] >= a.cfg.RestoreFraction {
				allHealthy = false
			}
		}

		cap, capped := a.capBps[fc]
		if allHealthy {
			a.healthy[fc]++
		} else {
			a.healthy[fc] = 0
		}
		switch {
		case breach:
			a.healthy[fc] = 0
			next := cap / 2
			if !capped {
				a.origBps[fc] = fwd.ClassRate(fc)
				next = a.demandBps[fc] / 2
			}
			if next < a.cfg.MinRateBps {
				next = a.cfg.MinRateBps
			}
			if capped && next == cap {
				break // already at the floor: nothing new to declare
			}
			if fwd.SetClassRate(fc, next) {
				a.capBps[fc] = next
				a.record(now, fc, "derate", fmt.Sprintf("rate -> %.0f B/s (demand %.0f B/s)", next, deltaBps))
			}
		case capped && allHealthy:
			// Each restore step is a probe; demand patience between steps so
			// the protected classes' probed series can absorb the last one.
			if a.healthy[fc] < a.cfg.RestorePatience {
				break
			}
			a.healthy[fc] = 0
			next := cap * 2
			if next >= a.demandBps[fc] {
				// Fully restored: hand back the configured (possibly
				// uncapped) rate and forget the episode.
				if fwd.SetClassRate(fc, a.origBps[fc]) {
					a.record(now, fc, "restore", fmt.Sprintf("rate -> %s (was capped at %.0f B/s)",
						rateString(a.origBps[fc]), cap))
				}
				delete(a.capBps, fc)
				delete(a.origBps, fc)
			} else if fwd.SetClassRate(fc, next) {
				a.capBps[fc] = next
				a.record(now, fc, "restore", fmt.Sprintf("rate -> %.0f B/s", next))
			}
		}
	}
}

func rateString(bps float64) string {
	if bps <= 0 {
		return "uncapped"
	}
	return fmt.Sprintf("%.0f B/s", bps)
}
