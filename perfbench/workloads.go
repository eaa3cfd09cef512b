package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/analytics"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/csiplugin"
	"repro/internal/fabric"
	"repro/internal/invariants"
	"repro/internal/netlink"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/workload"
)

// sizes is the input size of every workload. The benchmark runs fullSizes;
// the package tests run smaller ones.
type sizes struct {
	fleetTenants, fleetOrders int
	drainTenants, drainWrites int
	drainWindow               int
	snapTenants, snapOps      int
}

var fullSizes = sizes{
	fleetTenants: 512, fleetOrders: 8,
	drainTenants: 4, drainWrites: 4096, drainWindow: 8,
	snapTenants: 16, snapOps: 300,
}

// Workload shape constants shared by every size. Every client is a closed
// loop with a seeded exponential think time between operations, so the
// seed sets when operations meet at the shared array controller.
const (
	fleetThink       = 10 * time.Millisecond
	snapThink        = 200 * time.Microsecond
	drainThink       = 5 * time.Microsecond
	drainParallelism = 2   // controller slots of the drain arrays, fewer than writers
	drainVolumes     = 8   // volumes per drain tenant
	drainShards      = 4   // journal shards per drain tenant
	snapReadFraction = 0.5 // share of snapshot-read operations that are reads
	// fleetVolumeBlocks keeps fleet volumes small: a fleet tenant holds a
	// few orders, and a snapshot scan reads the whole volume.
	fleetVolumeBlocks = 256
)

// geoLink and lanLink are the drain workload's fabric members.
var (
	geoLink = netlink.Config{Propagation: 50 * time.Millisecond, BandwidthBps: 6.4e7}
	lanLink = netlink.Config{Propagation: time.Millisecond, BandwidthBps: 1.25e7}
)

// workloads returns the benchmark's workloads at the given size.
func workloads(sz sizes) []scenario {
	return []scenario{
		{name: "fleet", iters: 3, run: func(seed int64, tr *tracer) *iteration {
			return runFleet(sz, seed, tr)
		}},
		{name: "drain", iters: 12, run: func(seed int64, tr *tracer) *iteration {
			return runDrain(sz, seed, tr, sz.drainWindow)
		}},
		{name: "snapshot-read", iters: 8, run: func(seed int64, tr *tracer) *iteration {
			return runSnapshotRead(sz, seed, tr)
		}},
	}
}

// oltpTenant is one business-process tenant of fleet or snapshot-read.
type oltpTenant struct {
	ns       string
	idx      int
	req      int64
	failover bool
	analysis bool
	shop     *workload.Shop
	fo       *core.FailoverResult
	active   bool
}

// provisionOLTP declares one sales/stock tenant with backup on, waits for
// it to be Ready and registers its engines, databases and volumes. It
// reports false when provisioning failed.
func (in *instance) provisionOLTP(p *sim.Proc, t *oltpTenant, root int32, seed int64) bool {
	sys, it := in.sys, in.it
	start := p.Now()
	sp := in.tr.start(p, "core.ProvisionTenant", root, t.req)
	bp, err := sys.ProvisionTenant(p, platform.TenantSpec{
		Namespace: t.ns,
		PVCNames:  []string{"sales", "stock"},
		Backup:    true,
		Profile:   "oltp-external",
	})
	in.tr.end(p, sp)
	it.attempted++
	if err != nil {
		it.fail("provision %s: %v", t.ns, err)
		return false
	}
	it.provision.Record(p.Now() - start)
	t.shop = workload.NewShop(sys.Env, bp.Sales, bp.Stock, workload.Config{Seed: seed + int64(t.idx)*7919})
	in.groups = append(in.groups, sys.Groups(t.ns)...)
	in.dbs = append(in.dbs, bp.Sales, bp.Stock)
	for _, claim := range []string{"sales", "stock"} {
		if v, err := sys.Main.Array.Volume(csiplugin.VolumeIDForClaim(t.ns, claim)); err == nil {
			in.userVolumes = append(in.userVolumes, v)
		}
	}
	return true
}

// order places one order and records its commit latency.
func (in *instance) order(p *sim.Proc, t *oltpTenant, parent int32) bool {
	it := in.it
	sp := in.tr.start(p, "workload.PlaceOrder", parent, t.req)
	start := p.Now()
	_, err := t.shop.PlaceOrder(p)
	in.tr.end(p, sp)
	it.attempted++
	it.ops++
	if err != nil {
		it.fail("%s: %v", t.ns, err)
		return false
	}
	it.orderLat.Record(p.Now() - start)
	return true
}

// read runs one customer read.
func (in *instance) read(p *sim.Proc, t *oltpTenant, parent int32) bool {
	it := in.it
	sp := in.tr.start(p, "workload.CheckOrder", parent, t.req)
	err := t.shop.CheckOrder(p)
	in.tr.end(p, sp)
	it.attempted++
	it.ops++
	if err != nil {
		it.fail("%s: %v", t.ns, err)
		return false
	}
	return true
}

// analyze group-snapshots the tenant's backup volumes and runs both
// analytics queries on the snapshot, recording the time from the snapshot
// request until both queries returned.
func (in *instance) analyze(p *sim.Proc, t *oltpTenant, snapName string, parent int32) bool {
	sys, it, tr := in.sys, in.it, in.tr
	start := p.Now()
	root := tr.start(p, "analytics.pass", parent, t.req)
	defer tr.end(p, root)
	sp := tr.start(p, "core.SnapshotBackup", root, t.req)
	group, err := sys.SnapshotBackup(p, t.ns, snapName)
	tr.end(p, sp)
	it.attempted++
	if err != nil {
		it.fail("snapshot %s: %v", snapName, err)
		return false
	}
	sp = tr.start(p, "core.AnalyticsDBs", root, t.req)
	sales, stock, err := sys.AnalyticsDBs(p, t.ns, group)
	tr.end(p, sp)
	if err != nil {
		it.fail("analytics views %s: %v", snapName, err)
		return false
	}
	it.viewReplay.Record(sales.ReplayTime())
	it.viewReplay.Record(stock.ReplayTime())
	sp = tr.start(p, "analytics.Sales", root, t.req)
	rep, err := analytics.Sales(p, sales)
	tr.end(p, sp)
	it.attempted++
	it.ops++
	if err != nil {
		it.fail("analytics sales %s: %v", snapName, err)
		return false
	}
	sp = tr.start(p, "analytics.Join", root, t.req)
	join, err := analytics.Join(p, sales, stock)
	tr.end(p, sp)
	it.attempted++
	it.ops++
	if err != nil {
		it.fail("analytics join %s: %v", snapName, err)
		return false
	}
	it.analytics.Record(p.Now() - start)
	in.queries += 2
	in.rows += int64(rep.Orders + join.StockRows)
	it.check(join.Unmatched == 0, "analytics %s: %d stock rows without their order", snapName, join.Unmatched)
	return true
}

// catchUp waits for the tenant's backup to drain fully.
func (in *instance) catchUp(p *sim.Proc, ns string, req int64, parent int32) {
	start := p.Now()
	sp := in.tr.start(p, "core.CatchUp", parent, req)
	ok := in.sys.CatchUp(p, ns)
	in.tr.end(p, sp)
	in.it.attempted++
	if !ok {
		in.it.fail("catch-up %s: replication stopped before the backlog drained", ns)
		return
	}
	in.it.catchup.Record(p.Now() - start)
	in.noteCaughtUp(p.Now())
}

// runFleet is the control-plane-heavy workload: hundreds of tenants on the
// default system (one 5ms / 1GB/s link, passthrough fabric, plain groups).
// Every tenant provisions, waits at the start gate and places a few orders;
// a quarter take a mid-run group snapshot and run analytics on it, another
// quarter fail over mid-run, and a site-wide Failback ends the run.
func runFleet(sz sizes, seed int64, tr *tracer) *iteration {
	setupStart := time.Now()
	n := sz.fleetTenants
	in := newInstance(core.Config{
		Seed:             seed,
		VolumeBlocks:     fleetVolumeBlocks,
		ProvisionTimeout: time.Hour,
	}, n, n, tr)
	sys, it := in.sys, in.it
	tenants := make([]*oltpTenant, n)
	for i := range tenants {
		t := &oltpTenant{
			ns:       fmt.Sprintf("tenant-%04d", i),
			idx:      i,
			req:      int64(i + 1),
			failover: i%4 == 1,
			analysis: i%4 == 3,
		}
		tenants[i] = t
		sys.Env.Process("tenant:"+t.ns, func(p *sim.Proc) {
			defer in.finish(p)
			root := tr.start(p, "tenant", -1, t.req)
			defer tr.end(p, root)
			if !in.provisionOLTP(p, t, root, seed) {
				in.arrive(p, false)
				return
			}
			in.arrive(p, true)
			// The backup's staleness is sampled while the tenant writes
			// and while it waits to catch up, not while it is analysing or
			// failed over.
			groups := sys.Groups(t.ns)
			rpo := in.rpo.activate(p.Now(), groups)
			defer func() { rpo.deactivate() }()
			half := sz.fleetOrders / 2
			for range half {
				in.think(p, fleetThink)
				if !in.order(p, t, root) {
					return
				}
			}
			rpo.deactivate()
			if t.analysis && !in.analyze(p, t, t.ns+"-mid", root) {
				return
			}
			if t.failover {
				sp := tr.start(p, "core.Failover", root, t.req)
				fo, err := sys.Failover(p, t.ns)
				tr.end(p, sp)
				it.attempted++
				if err != nil {
					it.fail("failover %s: %v", t.ns, err)
					return
				}
				it.failover.Record(fo.RecoveryTime)
				t.fo = fo
				return
			}
			rpo = in.rpo.activate(p.Now(), groups)
			for range sz.fleetOrders - half {
				in.think(p, fleetThink)
				if !in.order(p, t, root) {
					return
				}
			}
			in.catchUp(p, t.ns, t.req, root)
		})
	}
	var fb *core.FailbackResult
	sys.Env.Process("site:failback", func(p *sim.Proc) {
		p.Wait(in.done)
		sp := tr.start(p, "core.Failback", -1, 0)
		res, err := sys.Failback(p)
		tr.end(p, sp)
		it.attempted++
		if err != nil {
			it.fail("failback: %v", err)
			return
		}
		fb = res
		it.failback = res.ResyncTime
		it.counters["failback.delta_over_full_blocks"] = float64(res.DeltaBlocks) / float64(max(res.FullBlocks, 1))
	})
	return in.execute(setupStart, func() { verifyOLTP(in, tenants, fb) })
}

// runSnapshotRead is the read-path workload: a few tenants with a read
// fraction of one half keep placing orders while the backup site
// repeatedly group-snapshots each tenant's volumes and runs both analytics
// queries on the snapshot.
func runSnapshotRead(sz sizes, seed int64, tr *tracer) *iteration {
	setupStart := time.Now()
	n := sz.snapTenants
	// Each tenant has a shop process and an analytics process.
	in := newInstance(core.Config{Seed: seed}, n, 2*n, tr)
	sys, it := in.sys, in.it
	tenants := make([]*oltpTenant, n)
	for i := range tenants {
		t := &oltpTenant{ns: fmt.Sprintf("shop-%02d", i), idx: i, req: int64(i + 1), active: true}
		tenants[i] = t
		started := sys.Env.NewEvent()
		sys.Env.Process("tenant:"+t.ns, func(p *sim.Proc) {
			defer in.finish(p)
			defer func() { t.active = false }()
			root := tr.start(p, "tenant", -1, t.req)
			defer tr.end(p, root)
			if !in.provisionOLTP(p, t, root, seed) {
				t.active = false
				p.Trigger(started)
				in.arrive(p, false)
				return
			}
			in.arrive(p, true)
			p.Trigger(started)
			rpo := in.rpo.activate(p.Now(), sys.Groups(t.ns))
			defer rpo.deactivate()
			for range sz.snapOps {
				ok := false
				if in.rng.Float64() < snapReadFraction {
					ok = in.read(p, t, root)
				} else {
					ok = in.order(p, t, root)
				}
				if !ok {
					return
				}
				in.think(p, snapThink)
			}
			in.catchUp(p, t.ns, t.req, root)
		})
		sys.Env.Process("analytics:"+t.ns, func(p *sim.Proc) {
			defer in.finish(p)
			p.Wait(started)
			// One snapshot stays live while the next is taken, so
			// replication applies under a live snapshot (copy-on-write).
			prev := ""
			for k := 0; t.active; k++ {
				name := fmt.Sprintf("%s-snap-%d", t.ns, k)
				if !in.analyze(p, t, name, -1) {
					return
				}
				if prev != "" {
					if err := sys.Backup.Array.DeleteSnapshotGroup(prev); err != nil {
						it.fail("delete snapshot %s: %v", prev, err)
						return
					}
				}
				prev = name
			}
		})
	}
	return in.execute(setupStart, func() { verifyOLTP(in, tenants, nil) })
}

// drainTenant is one write-heavy data-only tenant of the drain workload.
type drainTenant struct {
	ns     string
	req    int64
	vols   []*storage.Volume
	writes int
	image  []*storage.Volume // backup volumes after failover
}

// runDrain is the replication-path workload: a few write-heavy data-only
// tenants, each in its own weighted fabric class, with journals sharded
// over a scheduled four-member fabric (one 50ms geo link plus LAN links)
// at the given per-link window. Each tenant writes a burst of
// sequence-stamped blocks, drains to caught-up and fails over.
func runDrain(sz sizes, seed int64, tr *tracer, window int) *iteration {
	setupStart := time.Now()
	n := sz.drainTenants
	classes := make([]fabric.ClassConfig, n)
	for i := range classes {
		classes[i] = fabric.ClassConfig{Name: fmt.Sprintf("bulk-%d", i), Weight: i + 1}
	}
	in := newInstance(core.Config{
		Seed: seed,
		Fabric: fabric.Config{
			Links:         []netlink.Config{geoLink, lanLink, lanLink, lanLink},
			Classes:       classes,
			WindowPerLink: window,
		},
		JournalShards: drainShards,
		// Cheap primary writes, as in E18: the workload measures the drain,
		// so the primary array must never be its bottleneck.
		Storage: storage.Config{
			WriteLatency: 5 * time.Microsecond, JournalLatency: time.Microsecond,
			Parallelism: drainParallelism,
		},
		VolumeBlocks:     int64(sz.drainWrites),
		ProvisionTimeout: time.Hour,
	}, n, n, tr)
	sys, it := in.sys, in.it
	pvcs := make([]string, drainVolumes)
	for i := range pvcs {
		pvcs[i] = fmt.Sprintf("d%02d", i)
	}
	tenants := make([]*drainTenant, n)
	for i := range tenants {
		t := &drainTenant{ns: fmt.Sprintf("bulk-%02d", i), req: int64(i + 1)}
		tenants[i] = t
		sys.Env.Process("tenant:"+t.ns, func(p *sim.Proc) {
			defer in.finish(p)
			root := tr.start(p, "tenant", -1, t.req)
			defer tr.end(p, root)
			sp := tr.start(p, "core.ProvisionTenant", root, t.req)
			start := p.Now()
			_, err := sys.ProvisionTenant(p, platform.TenantSpec{
				Namespace:     t.ns,
				PVCNames:      pvcs,
				Backup:        true,
				QoSClass:      classes[i].Name,
				JournalShards: drainShards,
				Profile:       "data-only",
			})
			tr.end(p, sp)
			it.attempted++
			if err != nil {
				it.fail("provision %s: %v", t.ns, err)
				in.arrive(p, false)
				return
			}
			it.provision.Record(p.Now() - start)
			for _, claim := range pvcs {
				v, err := sys.Main.Array.Volume(csiplugin.VolumeIDForClaim(t.ns, claim))
				if err != nil {
					it.fail("volume %s/%s: %v", t.ns, claim, err)
					in.arrive(p, false)
					return
				}
				t.vols = append(t.vols, v)
			}
			groups := sys.Groups(t.ns)
			in.groups = append(in.groups, groups...)
			in.arrive(p, true)
			rpo := in.rpo.activate(p.Now(), groups)
			// The burst: every write lands on a fresh block of a seeded
			// volume and carries its sequence number, so the failover image
			// can be checked as an exact prefix.
			next := make([]int64, len(t.vols))
			buf := make([]byte, sys.Main.Array.Config().BlockSize)
			for k := 1; k <= sz.drainWrites; k++ {
				vi := in.rng.Intn(len(t.vols))
				binary.BigEndian.PutUint64(buf, uint64(k))
				sp := tr.start(p, "storage.Volume.Write", root, t.req)
				start := p.Now()
				_, err := t.vols[vi].Write(p, next[vi], buf)
				tr.end(p, sp)
				it.attempted++
				it.ops++
				if err != nil {
					it.fail("%s write %d: %v", t.ns, k, err)
					rpo.deactivate()
					return
				}
				it.orderLat.Record(p.Now() - start)
				next[vi]++
				t.writes = k
				in.think(p, drainThink)
			}
			in.directBytes += int64(sz.drainWrites) * int64(len(buf))
			in.catchUp(p, t.ns, t.req, root)
			rpo.deactivate()
			sp = tr.start(p, "replication.Failover", root, t.req)
			for _, g := range groups {
				vols, err := g.Failover()
				it.attempted++
				if err != nil {
					it.fail("failover %s: %v", t.ns, err)
					continue
				}
				t.image = append(t.image, vols...)
			}
			tr.end(p, sp)
		})
	}
	return in.execute(setupStart, func() { verifyDrain(in, tenants) })
}

// verifyOLTP checks, after the measured phase, that every surviving
// tenant's final backup snapshot and every failover image is a consistent
// cut (no collapse, per-volume ack-order prefixes), that survivors lost
// nothing after catching up, that failback left its reverse groups
// running, and that every link delivered in order.
func verifyOLTP(in *instance, tenants []*oltpTenant, fb *core.FailbackResult) {
	sys, it := in.sys, in.it
	type image struct {
		t            *oltpTenant
		sales, stock consistency.CommitSet
	}
	var images []image
	sys.Env.Process("verify", func(p *sim.Proc) {
		for _, t := range tenants {
			switch {
			case t.shop == nil:
				// Provisioning failed; already counted.
			case t.fo != nil:
				images = append(images, image{t, t.fo.Sales, t.fo.Stock})
			case !t.failover:
				group, err := sys.SnapshotBackup(p, t.ns, t.ns+"-final")
				if err != nil {
					it.fail("verify snapshot %s: %v", t.ns, err)
					continue
				}
				sales, stock, err := sys.AnalyticsDBs(p, t.ns, group)
				if err != nil {
					it.fail("verify views %s: %v", t.ns, err)
					continue
				}
				images = append(images, image{t, sales, stock})
			}
		}
	})
	sys.Env.Run(0)
	for _, im := range images {
		rep := consistency.Verify(im.sales, im.stock, im.t.shop.SalesCommitOrder(), im.t.shop.StockCommitOrder())
		it.check(!rep.Collapsed() && rep.OrderingOK(), "consistency %s: %v", im.t.ns, rep)
		if im.t.fo == nil {
			lost := rep.LostSalesTxns + rep.LostStockTxns
			it.check(lost == 0, "consistency %s: caught-up backup is missing %d commits", im.t.ns, lost)
		}
	}
	if fb != nil {
		for _, g := range fb.Reverse {
			it.check(!g.Stopped() && !g.FailedOver(), "failback: reverse group %s is not running", g.Name())
		}
	}
	checkLinks(it, sys.Fabric)
}

// verifyDrain checks that every drain tenant's failover image is exactly
// the stamped prefix of all its writes — it caught up before failing over,
// so nothing may be missing and nothing may be out of order.
func verifyDrain(in *instance, tenants []*drainTenant) {
	it := in.it
	for _, t := range tenants {
		if t.image == nil {
			continue
		}
		k, exact := invariants.StampedPrefix(t.image)
		it.check(exact && k == t.writes, "stamped prefix %s: image holds {1..%d} (exact %v), want {1..%d}", t.ns, k, exact, t.writes)
	}
	checkLinks(it, in.sys.Fabric)
}
