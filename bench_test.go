// Package repro's root benchmarks regenerate every paper artifact (one
// bench per experiment; see DESIGN.md's index). The benchmarks measure the
// harness's wall cost; the scientific results are the simulated-time tables
// each harness prints via cmd/experiments.
package repro

import (
	"testing"
	"time"

	"repro/internal/experiments"
)

// BenchmarkE1_EndToEndPipeline regenerates E1 (Fig. 1 / §IV walkthrough).
func BenchmarkE1_EndToEndPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E1EndToEnd(int64(i+1), 100)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Consistent || !res.FailoverIntact {
			b.Fatalf("pipeline inconsistent: %+v", res)
		}
	}
}

// BenchmarkE2_OperatorAutomation regenerates E2 (Figs. 3-4).
func BenchmarkE2_OperatorAutomation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E2Operator(int64(i+1), []int{2, 8, 32}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3_SnapshotGroup regenerates E3 (Fig. 5).
func BenchmarkE3_SnapshotGroup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E3SnapshotGroup(int64(i+1), []int{2, 8}, []float64{0, 0.5, 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4_AnalyticsOnSnapshot regenerates E4 (Fig. 6).
func BenchmarkE4_AnalyticsOnSnapshot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E4Analytics(int64(i+1), 40); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5_SlowdownADCvsSDC regenerates E5 (§I slowdown claim).
func BenchmarkE5_SlowdownADCvsSDC(b *testing.B) {
	rtts := []time.Duration{2 * time.Millisecond, 20 * time.Millisecond, 100 * time.Millisecond}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E5Slowdown(int64(i+1), rtts, 60); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6_CollapseNoCGvsCG regenerates E6 (§I collapse claim).
func BenchmarkE6_CollapseNoCGvsCG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cg, err := experiments.E6Collapse(int64(i*999+1), 6, 300, experiments.ModeADC)
		if err != nil {
			b.Fatal(err)
		}
		if cg.Collapsed != 0 {
			b.Fatalf("consistency group collapsed: %+v", cg)
		}
		if _, err := experiments.E6Collapse(int64(i*999+1), 6, 300, experiments.ModeADCNoCG); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7_RPOvsLink regenerates E7 (RPO exposure).
func BenchmarkE7_RPOvsLink(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.E7RPO(int64(i+1),
			[]time.Duration{10 * time.Millisecond},
			[]float64{2e5, 1e9}, 300*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8_RecoveryDowntime regenerates E8 (downtime claim).
func BenchmarkE8_RecoveryDowntime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E8Recovery(int64(i+1), []int{20, 100, 200}, experiments.ModeADC); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10_FailbackResync regenerates E10 (delta resync after outage).
func BenchmarkE10_FailbackResync(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E10Failback(int64(i+1), []int{10, 200})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			if !r.ReverseOK {
				b.Fatalf("reverse replication broken: %+v", r)
			}
		}
	}
}

// BenchmarkE9_Ablations regenerates E9 (design-choice ablations).
func BenchmarkE9_Ablations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E9BatchSweep(int64(i+1), []int{1, 16, 256}, 100); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.E9CGScale(int64(i+1), []int{2, 16}, 20); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.E9SkewSweep(int64(i+1), []float64{-1, 1.5}, 60); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE12_Interference regenerates E12: a noisy neighbor flooding the
// shared inter-site fabric against a victim tenant, across QoS policies
// (none, weighted classes, dedicated link) plus a mid-run member-link
// failure. This is the fabric scheduler's stress harness.
func BenchmarkE12_Interference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiments.E12Interference(int64(i+1), 40)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if !r.Consistent {
				b.Fatalf("consistency cut broke: %+v", r)
			}
		}
	}
}

// BenchmarkE12_InterferenceWindowed reruns E12's scheduled scenarios
// (weighted classes, dedicated link, member-link failure) with a per-link
// in-flight window of 4: the QoS isolation shape and every tenant's
// consistency cut must survive pipelined dispatch.
func BenchmarkE12_InterferenceWindowed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiments.E12InterferenceWindowed(int64(i+1), 40, 4)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if !r.Consistent {
				b.Fatalf("consistency cut broke under window=4: %+v", r)
			}
		}
	}
}

// BenchmarkE13_ShardedThroughput regenerates E13: one write-heavy tenant's
// consistency-group journal sharded across 1/2/4/8 drain lanes over a
// four-link fabric. The acceptance shape is asserted here too: >= 2x drain
// throughput at 4 shards vs 1, and a consistent cross-volume cut after a
// mid-run failover at every shard count.
func BenchmarkE13_ShardedThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiments.E13ShardedThroughput(int64(i+1), []int{1, 2, 4, 8}, 4000)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if !r.FailoverConsistent {
				b.Fatalf("failover cut broke at %d shards: %+v", r.Shards, r)
			}
		}
		if results[2].Shards != 4 || results[2].Speedup < 2 {
			b.Fatalf("4-shard speedup %.2fx < 2x: %+v", results[2].Speedup, results)
		}
	}
}

// BenchmarkE11_FleetScale regenerates E11: 1,024 tenant namespaces on one
// shared two-site system, mixed OLTP + snapshot analytics + mid-run
// failovers, with per-tenant cross-volume consistency verified. This is the
// fleet-scale stress the sim-kernel fast paths (batch-grained processes,
// fused range I/O, keyed watches) exist for; the committed baseline pins its
// wall cost so kernel regressions block CI.
func BenchmarkE11_FleetScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E11FleetScale(int64(i+1), 1024, 8)
		if err != nil {
			b.Fatal(err)
		}
		if res.Verified != res.Tenants || res.Collapsed != 0 {
			b.Fatalf("fleet inconsistent: %+v", res)
		}
	}
}

// BenchmarkE11_FleetScaleTelemetry is BenchmarkE11_FleetScale with the
// telemetry plane enabled: per-tenant RPO/backlog probes, fabric and
// controller instruments, and lifecycle/epoch span tracing, all live at
// 1,024 tenants. The sample period is kept coarse (5s of virtual time) so
// the bench measures instrumentation overhead on the hot paths rather than
// sample-point volume; the committed baseline requires it to track
// BenchmarkE11_FleetScale within a few percent.
func BenchmarkE11_FleetScaleTelemetry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E11FleetScaleTelemetry(int64(i+1), 1024, 8, 5*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		if res.Verified != res.Tenants || res.Collapsed != 0 {
			b.Fatalf("fleet inconsistent: %+v", res)
		}
	}
}

// BenchmarkE16_Observability regenerates E16: a churning fleet (join, live
// reshard, mid-run failovers) with the full telemetry plane on, the
// worst-RPO top-k query, and the probed RPO timelines cross-validated
// against the fleet's own sampler within one sample interval.
func BenchmarkE16_Observability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E16Observability(int64(i+1), 8, 8)
		if err != nil {
			b.Fatal(err)
		}
		if res.ValidatedTenants == 0 || res.Verified != res.Tenants {
			b.Fatalf("observability run inconsistent: %+v", res)
		}
	}
}

// BenchmarkE14_Elasticity regenerates E14: the declarative tenant-lifecycle
// experiment — a steady baseline fleet, then the same fleet with mid-run
// joins (initial copy under OLTP load, one join racing a site failover) and
// a mid-run leave whose decommission must reclaim every volume and journal
// shard. The acceptance shape is asserted here too: every tenant (initial
// and joined) verifies consistent and the leaver leaves zero residue.
func BenchmarkE14_Elasticity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E14Elasticity(int64(i+1), 10, 8)
		if err != nil {
			b.Fatal(err)
		}
		if res.Verified != res.Tenants+res.Joined || res.Collapsed != 0 {
			b.Fatalf("elasticity fleet inconsistent: %+v", res)
		}
		if !res.ReclaimOK || res.ResidueLeaks != 0 {
			b.Fatalf("decommission leaked: %+v", res)
		}
	}
}

// BenchmarkE17_Autopilot regenerates E17: the diurnal SLO experiment run
// twice — statically provisioned (the violation baseline), then under the
// closed-loop autopilot, which must hold every declared RPO target using
// all three effectors (reshard, admission, placement) and hand the
// resources back at night. The acceptance shape is asserted here too.
func BenchmarkE17_Autopilot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E17Autopilot(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if !res.StaticViolates || !res.AutoHolds {
			b.Fatalf("E17 shape broke: staticViolates=%v autoHolds=%v", res.StaticViolates, res.AutoHolds)
		}
		if res.ReshardUps == 0 || res.Derates == 0 || res.Placings == 0 {
			b.Fatalf("an effector never fired: %+v", res)
		}
	}
}

// BenchmarkE18_PipeFill regenerates E18: the same sharded drain schedule
// over one 50ms geo link at per-link in-flight windows 1/4/16. The
// acceptance shape is asserted here too: >= 5x drain throughput at
// window=16 vs stop-and-wait, per-link delivery order proven monotone, and
// an exact ack-order prefix from the mid-window partition/heal/failover run
// at every window.
func BenchmarkE18_PipeFill(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiments.E18PipeFill(int64(i+1), []int{1, 4, 16}, 6144)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if !r.OrderOK || !r.FailoverConsistent {
				b.Fatalf("window=%d: order/cut broke: %+v", r.Window, r)
			}
		}
		if results[2].Window != 16 || results[2].Speedup < 5 {
			b.Fatalf("window=16 speedup %.2fx < 5x: %+v", results[2].Speedup, results)
		}
	}
}

// BenchmarkE15_Reshard regenerates E15: a write-heavy tenant's journal
// resharded 1->4 LIVE (epoch-barrier migration under continuous load and
// bystander OLTP traffic) over a four-link fabric. The acceptance shape is
// asserted here too: >= 2x post-reshard drain throughput, an exact
// epoch-boundary prefix from a failover raced into the migration window,
// and zero migration on a shards-unchanged reconcile.
func BenchmarkE15_Reshard(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E15Reshard(int64(i+1), 4000)
		if err != nil {
			b.Fatal(err)
		}
		if res.SpeedupPostVsPre < 2 {
			b.Fatalf("post/pre speedup %.2fx < 2x: %+v", res.SpeedupPostVsPre, res)
		}
		if !res.FailoverConsistent || !res.RacedWindow {
			b.Fatalf("mid-window failover cut broke: %+v", res)
		}
		if !res.NoopZeroMigration {
			b.Fatalf("unchanged reconcile migrated: %+v", res)
		}
	}
}
