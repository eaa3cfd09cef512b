package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/consistency"
	"repro/internal/csiplugin"
	"repro/internal/platform"
	"repro/internal/replication"
	"repro/internal/sim"
)

// TestReshardTenantEndToEnd drives the full reshard chain from the Tenant
// spec: 1 -> 4 widens the paper's one-lane group in place to four lanes
// while OLTP commits keep flowing, 4 -> 2 shrinks it live, and the tenant's
// backup image stays a consistent cut throughout (verified by snapshot
// analytics after each transition).
func TestReshardTenantEndToEnd(t *testing.T) {
	runSystem(t, Config{}, func(p *sim.Proc, sys *System) {
		spec := tenantSpec("shop")
		spec.JournalShards = 1
		bp, err := sys.ProvisionTenant(p, spec)
		if err != nil {
			t.Errorf("provision: %v", err)
			return
		}
		sg := sys.Groups("shop")[0].(*replication.ShardedGroup)
		if sg.Lanes() != 1 {
			t.Errorf("shards=1 engine has %d lanes", sg.Lanes())
			return
		}
		if err := bp.Shop.Run(p, 6); err != nil {
			t.Error(err)
			return
		}

		if err := sys.ReshardTenant(p, "shop", 4); err != nil {
			t.Errorf("reshard 1->4: %v", err)
			return
		}
		if g := sys.Groups("shop")[0]; g != sg || sg.Lanes() != 4 || sg.Resharding() {
			t.Errorf("after 1->4: same engine %v lanes=%d resharding=%v", g == sg, sg.Lanes(), sg.Resharding())
			return
		}
		if err := bp.Shop.Run(p, 6); err != nil {
			t.Error(err)
			return
		}
		sys.CatchUp(p, "shop")
		if group, err := sys.SnapshotBackup(p, "shop", "after-grow"); err != nil {
			t.Errorf("snapshot after grow: %v", err)
		} else if _, _, err := sys.AnalyticsDBs(p, "shop", group); err != nil {
			t.Errorf("analytics after grow: %v", err)
		}

		if err := sys.ReshardTenant(p, "shop", 2); err != nil {
			t.Errorf("reshard 4->2: %v", err)
			return
		}
		if got := sys.Groups("shop")[0].Lanes(); got != 2 {
			t.Errorf("after 4->2: lanes=%d", got)
			return
		}
		if err := bp.Shop.Run(p, 6); err != nil {
			t.Error(err)
			return
		}
		sys.CatchUp(p, "shop")
		if group, err := sys.SnapshotBackup(p, "shop", "after-shrink"); err != nil {
			t.Errorf("snapshot after shrink: %v", err)
		} else if _, _, err := sys.AnalyticsDBs(p, "shop", group); err != nil {
			t.Errorf("analytics after shrink: %v", err)
		}

		// The reshard history must not obstruct a clean decommission.
		if err := sys.DecommissionTenant(p, "shop"); err != nil {
			t.Errorf("decommission after reshards: %v", err)
		}
	})
}

// TestReshardTenantUnchangedSpecIsZeroMigration pins the acceptance
// criterion: re-declaring the same shard count performs zero migration,
// verified by the journal's lifetime counters.
func TestReshardTenantUnchangedSpecIsZeroMigration(t *testing.T) {
	runSystem(t, Config{}, func(p *sim.Proc, sys *System) {
		spec := tenantSpec("shop")
		spec.JournalShards = 4
		if _, err := sys.ProvisionTenant(p, spec); err != nil {
			t.Errorf("provision: %v", err)
			return
		}
		sj, err := sys.Main.Array.ShardedJournal("jnl-backup-shop-0")
		if err != nil {
			t.Error(err)
			return
		}
		if err := sys.ReshardTenant(p, "shop", 4); err != nil {
			t.Errorf("same-count reshard: %v", err)
			return
		}
		p.Sleep(200 * time.Millisecond) // let any misguided reconcile run
		if sj.Reshards() != 0 || sj.MovedRecords() != 0 || sj.MovedVolumes() != 0 {
			t.Errorf("unchanged spec migrated: reshards=%d recs=%d vols=%d",
				sj.Reshards(), sj.MovedRecords(), sj.MovedVolumes())
		}
	})
}

// TestFailbackShardedTenant fails a four-shard tenant over and back: the
// delta resync copies less than a full copy, a running one-lane reverse
// group carries backup-site production to the main site, the restored main
// site holds exactly the backup's image (a verified consistent cut holding
// every order, plus the backup-era history), and an unrelated sharded
// tenant keeps draining throughout.
func TestFailbackShardedTenant(t *testing.T) {
	runSystem(t, Config{JournalShards: 4}, func(p *sim.Proc, sys *System) {
		bpA, err := sys.ProvisionTenant(p, tenantSpec("alpha"))
		if err != nil {
			t.Errorf("provision alpha: %v", err)
			return
		}
		bpB, err := sys.ProvisionTenant(p, tenantSpec("beta"))
		if err != nil {
			t.Errorf("provision beta: %v", err)
			return
		}
		if err := bpA.Shop.Run(p, 12); err != nil {
			t.Error(err)
			return
		}
		sys.CatchUp(p, "alpha")
		if lanes := sys.Groups("alpha")[0].Lanes(); lanes != 4 {
			t.Errorf("alpha drains on %d lanes, want 4", lanes)
			return
		}
		fo, err := sys.Failover(p, "alpha")
		if err != nil {
			t.Errorf("failover: %v", err)
			return
		}
		rep := consistency.Verify(fo.Sales, fo.Stock, bpA.Shop.SalesCommitOrder(), bpA.Shop.StockCommitOrder())
		if rep.Collapsed() || !rep.OrderingOK() || rep.LostSalesTxns+rep.LostStockTxns != 0 {
			t.Errorf("failover image: %+v", rep)
		}
		tx := fo.Sales.BeginWithID(5000)
		tx.Put(5000, []byte("backup-era order"))
		if err := tx.Commit(p); err != nil {
			t.Errorf("backup-era commit: %v", err)
			return
		}

		fb, err := sys.Failback(p)
		if err != nil {
			t.Errorf("failback: %v", err)
			return
		}
		if len(fb.Reverse) != 1 || fb.Sharded != 1 {
			t.Errorf("failback reversed %d groups (%d sharded), want 1 (1)", len(fb.Reverse), fb.Sharded)
			return
		}
		rev := fb.Reverse[0]
		if rev.Stopped() || rev.FailedOver() || rev.Lanes() != 1 {
			t.Errorf("reverse group not running on one lane: stopped=%v failedover=%v lanes=%d",
				rev.Stopped(), rev.FailedOver(), rev.Lanes())
		}
		if fb.DeltaBlocks == 0 || fb.DeltaBlocks >= fb.FullBlocks {
			t.Errorf("delta resync implausible: %d of %d", fb.DeltaBlocks, fb.FullBlocks)
		}
		if _, err := sys.Failback(p); err == nil {
			t.Error("a second failback reversed the same group again")
		}
		tx2 := fo.Sales.BeginWithID(5001)
		tx2.Put(5001, []byte("post-failback order"))
		if err := tx2.Commit(p); err != nil {
			t.Errorf("post-failback commit: %v", err)
			return
		}
		rev.CatchUp(p)
		rev.Stop()

		// The restored main site holds exactly the backup's image — the
		// consistent failover cut plus the backup-era history.
		for _, claim := range []string{"sales", "stock"} {
			id := csiplugin.VolumeIDForClaim("alpha", claim)
			mv, _ := sys.Main.Array.Volume(id)
			bv, _ := sys.Backup.Array.Volume(id)
			for _, b := range append(mv.WrittenBlocks(), bv.WrittenBlocks()...) {
				if !bytes.Equal(mv.Peek(b), bv.Peek(b)) {
					t.Errorf("%s block %d differs between the restored main site and the backup", claim, b)
					return
				}
			}
		}
		mainSales, _ := sys.Main.Array.Volume(csiplugin.VolumeIDForClaim("alpha", "sales"))
		mainSales.SetReadOnly(false)
		recovered, err := openDBForTest(p, mainSales)
		if err != nil {
			t.Errorf("recover main: %v", err)
			return
		}
		if !recovered.HasCommitted(5000) || !recovered.HasCommitted(5001) {
			t.Error("backup-era history missing at restored main site")
		}

		if err := bpB.Shop.Run(p, 4); err != nil {
			t.Error(err)
			return
		}
		if !sys.CatchUp(p, "beta") {
			t.Error("beta no longer drains after alpha's failback")
		}
	})
}

// TestUpdateTenantSpecUnchangedWritesNothing pins UpdateTenantSpec's quiet
// path: a mutation that changes nothing must not bump the object version.
func TestUpdateTenantSpecUnchangedWritesNothing(t *testing.T) {
	runSystem(t, Config{}, func(p *sim.Proc, sys *System) {
		if _, err := sys.ProvisionTenant(p, tenantSpec("shop")); err != nil {
			t.Errorf("provision: %v", err)
			return
		}
		obj, err := sys.Main.API.Get(p, tenantKey("shop"))
		if err != nil {
			t.Error(err)
			return
		}
		before := obj.GetMeta().ResourceVersion
		if err := sys.UpdateTenantSpec(p, "shop", func(s *platform.TenantSpec) {}); err != nil {
			t.Error(err)
			return
		}
		obj, err = sys.Main.API.Get(p, tenantKey("shop"))
		if err != nil {
			t.Error(err)
			return
		}
		if got := obj.GetMeta().ResourceVersion; got != before {
			t.Errorf("no-op spec update bumped version %d -> %d", before, got)
		}
	})
}

// TestReshardTenantRefusesImpossibleStates pins the fast-fail contract:
// per-volume replication and failed-over groups can never reshard, so the
// request returns the typed ErrNotReshardable immediately instead of
// dressing a permanent condition up as a timeout.
func TestReshardTenantRefusesImpossibleStates(t *testing.T) {
	// Per-volume mode (the E6 no-CG ablation): no shard structure at all.
	runSystem(t, Config{ConsistencyGroup: Bool(false)}, func(p *sim.Proc, sys *System) {
		if _, err := sys.ProvisionTenant(p, tenantSpec("shop")); err != nil {
			t.Errorf("provision: %v", err)
			return
		}
		start := p.Now()
		err := sys.ReshardTenant(p, "shop", 4)
		if !errors.Is(err, ErrNotReshardable) {
			t.Errorf("per-volume reshard error = %v, want ErrNotReshardable", err)
		}
		if p.Now()-start >= sys.provisionTimeout() {
			t.Error("per-volume refusal burned the timeout instead of failing fast")
		}
	})
	// Failed-over group: the drain is gone; nothing to migrate under.
	runSystem(t, Config{JournalShards: 2}, func(p *sim.Proc, sys *System) {
		if _, err := sys.ProvisionTenant(p, tenantSpec("shop")); err != nil {
			t.Errorf("provision: %v", err)
			return
		}
		if _, err := sys.Failover(p, "shop"); err != nil {
			t.Errorf("failover: %v", err)
			return
		}
		start := p.Now()
		err := sys.ReshardTenant(p, "shop", 4)
		if !errors.Is(err, ErrNotReshardable) {
			t.Errorf("failed-over reshard error = %v, want ErrNotReshardable", err)
		}
		if p.Now()-start >= sys.provisionTimeout() {
			t.Error("failed-over refusal burned the timeout instead of failing fast")
		}
	})
}

// TestReshardTenantRefusesNoBackupAndSingleVolumeMode covers the remaining
// permanent states: a tenant without backup has no replication to reshape,
// and a single-claim tenant in per-volume mode has one engine but still no
// shard structure (the RG spec, not the engine count, carries that fact).
func TestReshardTenantRefusesNoBackupAndSingleVolumeMode(t *testing.T) {
	runSystem(t, Config{}, func(p *sim.Proc, sys *System) {
		spec := tenantSpec("shop")
		spec.Backup = false
		if _, err := sys.ProvisionTenant(p, spec); err != nil {
			t.Errorf("provision: %v", err)
			return
		}
		start := p.Now()
		if err := sys.ReshardTenant(p, "shop", 4); !errors.Is(err, ErrNotReshardable) {
			t.Errorf("no-backup reshard error = %v, want ErrNotReshardable", err)
		}
		if p.Now()-start >= sys.provisionTimeout() {
			t.Error("no-backup refusal burned the timeout")
		}
	})
	runSystem(t, Config{ConsistencyGroup: Bool(false)}, func(p *sim.Proc, sys *System) {
		spec := platform.TenantSpec{Namespace: "solo", PVCNames: []string{"data"}, Backup: true, Profile: "data-only"}
		if _, err := sys.ProvisionTenant(p, spec); err != nil {
			t.Errorf("provision: %v", err)
			return
		}
		if gs := sys.Groups("solo"); len(gs) != 1 {
			t.Errorf("fixture degenerate: %d engines, want exactly 1", len(gs))
			return
		}
		start := p.Now()
		if err := sys.ReshardTenant(p, "solo", 4); !errors.Is(err, ErrNotReshardable) {
			t.Errorf("single-volume per-volume-mode reshard error = %v, want ErrNotReshardable", err)
		}
		if p.Now()-start >= sys.provisionTimeout() {
			t.Error("per-volume single-engine refusal burned the timeout")
		}
	})
}
