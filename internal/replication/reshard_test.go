package replication

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/netlink"
	"repro/internal/sim"
	"repro/internal/storage"
)

// lanePaths builds n independent link-pair paths for a reshard target set.
func lanePaths(env *sim.Env, n int, cfg netlink.Config) []fabric.Path {
	out := make([]fabric.Path, n)
	for k := range out {
		out[k] = netlink.NewPair(env, cfg).Forward
	}
	return out
}

// verifyConverged checks the backup image equals the source image block for
// block after a full drain.
func (r *shardedRig) verifyConverged(t *testing.T) {
	t.Helper()
	for _, id := range r.vols {
		sv, _ := r.main.Volume(id)
		tv, _ := r.backup.Volume(id)
		for _, b := range sv.WrittenBlocks() {
			if !bytes.Equal(sv.Peek(b), tv.Peek(b)) {
				t.Fatalf("volume %s block %d diverged after drain", id, b)
			}
		}
	}
}

// TestLiveReshardGrowUnderLoad reshards 2->4 while the writer keeps
// committing: untouched lanes keep draining, new lanes pick up migrated
// volumes, and the drain converges to the exact source image.
func TestLiveReshardGrowUnderLoad(t *testing.T) {
	link := netlink.Config{Propagation: time.Millisecond, BandwidthBps: 2e7}
	r := newShardedRig(t, 2, 16, link, Config{BatchMax: 8})
	r.g.Start()
	const writes = 192
	var stats storage.ReshardStats
	r.env.Process("writer", func(p *sim.Proc) {
		for i := 0; i < writes; i++ {
			r.seqWrite(p, t, i)
			if i == writes/2 {
				var err error
				stats, err = r.g.Reshard(p, lanePaths(r.env, 4, link))
				if err != nil {
					t.Errorf("reshard: %v", err)
					return
				}
			}
		}
		if !r.g.AwaitReshard(p) {
			t.Error("reshard never settled")
		}
		if !r.g.CatchUp(p) {
			t.Error("catch-up failed")
		}
	})
	r.env.Run(0)
	if t.Failed() {
		return
	}
	if stats.From != 2 || stats.To != 4 || stats.BarrierEpoch == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if r.g.Lanes() != 4 || r.g.Resharding() {
		t.Fatalf("lanes=%d resharding=%v after settle", r.g.Lanes(), r.g.Resharding())
	}
	if n, exact := exactPrefix(r.presentSeqs()); n != writes || !exact {
		t.Fatalf("backup has %d writes (exact=%v), want all %d", n, exact, writes)
	}
	r.verifyConverged(t)
	if r.g.Backlog() != 0 {
		t.Fatalf("backlog %d after catch-up", r.g.Backlog())
	}
}

// TestLiveReshardShrinkReapsRetiredLanes reshards 4->2 mid-load: the two
// retired lanes must commit what they had staged, then disappear along with
// their decommissioned shard journals.
func TestLiveReshardShrinkReapsRetiredLanes(t *testing.T) {
	link := netlink.Config{Propagation: time.Millisecond, BandwidthBps: 2e7}
	r := newShardedRig(t, 4, 16, link, Config{BatchMax: 8})
	r.g.Start()
	const writes = 192
	r.env.Process("writer", func(p *sim.Proc) {
		for i := 0; i < writes; i++ {
			r.seqWrite(p, t, i)
			if i == writes/2 {
				if _, err := r.g.Reshard(p, lanePaths(r.env, 2, link)); err != nil {
					t.Errorf("reshard: %v", err)
					return
				}
			}
		}
		if !r.g.AwaitReshard(p) {
			t.Error("reshard never settled")
		}
		r.g.CatchUp(p)
	})
	r.env.Run(0)
	if t.Failed() {
		return
	}
	if r.g.Lanes() != 2 || len(r.g.retiring) != 0 {
		t.Fatalf("lanes=%d retiring=%d after settle", r.g.Lanes(), len(r.g.retiring))
	}
	if u := r.main.Usage(); u.Journals != 2 {
		t.Fatalf("%d shard journals on the array, want the 2 survivors", u.Journals)
	}
	if len(r.sj.Retired()) != 0 {
		t.Fatal("storage still lists retired shards")
	}
	if n, exact := exactPrefix(r.presentSeqs()); n != writes || !exact {
		t.Fatalf("backup has %d writes (exact=%v), want all %d", n, exact, writes)
	}
	r.verifyConverged(t)
}

// TestMidReshardFailoverIsExactEpochPrefix races a disaster into the open
// migration window: the recovered image must be an exact ack-order prefix —
// entirely pre-barrier or entirely post-barrier state, never a mix.
func TestMidReshardFailoverIsExactEpochPrefix(t *testing.T) {
	for _, d := range []time.Duration{2 * time.Millisecond, 9 * time.Millisecond, 25 * time.Millisecond} {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			// Thin links so a deep backlog exists when the reshard hits.
			link := netlink.Config{Propagation: 2 * time.Millisecond, BandwidthBps: 2e6}
			r := newShardedRig(t, 1, 16, link, Config{BatchMax: 8})
			r.g.Start()
			const writes = 256
			resharded := r.env.NewEvent()
			r.env.Process("writer", func(p *sim.Proc) {
				for i := 0; i < writes; i++ {
					r.seqWrite(p, t, i)
					if i == writes/2 {
						if _, err := r.g.Reshard(p, lanePaths(r.env, 4, link)); err != nil {
							t.Errorf("reshard: %v", err)
							return
						}
						resharded.Trigger()
					}
				}
			})
			var racedWindow bool
			r.env.Process("disaster", func(p *sim.Proc) {
				p.Wait(resharded)
				p.Sleep(d)
				racedWindow = r.g.Resharding()
				if _, err := r.g.Failover(); err != nil {
					t.Errorf("failover: %v", err)
				}
			})
			r.env.Run(0)
			if t.Failed() {
				return
			}
			n, exact := exactPrefix(r.presentSeqs())
			if !exact {
				t.Fatalf("failover image is not an exact ack-order prefix (cut=%d, raced window=%v)", n, racedWindow)
			}
			if n > writes {
				t.Fatalf("cut %d beyond writes", n)
			}
		})
	}
}

// TestReshardSameCountIsNoop pins the unchanged-reconcile contract at the
// engine level: zero migration, zero counters, same lanes.
func TestReshardSameCountIsNoop(t *testing.T) {
	link := netlink.Config{Propagation: time.Millisecond, BandwidthBps: 1e8}
	r := newShardedRig(t, 2, 8, link, Config{})
	r.g.Start()
	r.env.Process("driver", func(p *sim.Proc) {
		for i := 0; i < 16; i++ {
			r.seqWrite(p, t, i)
		}
		stats, err := r.g.Reshard(p, lanePaths(r.env, 2, link))
		if err != nil {
			t.Errorf("noop reshard: %v", err)
			return
		}
		if stats.BarrierEpoch != 0 || stats.MovedRecords != 0 || stats.MovedVolumes != 0 {
			t.Errorf("noop reshard did work: %+v", stats)
		}
		r.g.CatchUp(p)
	})
	r.env.Run(0)
	if r.g.Reshards() != 0 || r.sj.Reshards() != 0 || r.sj.MovedRecords() != 0 {
		t.Fatalf("noop reshard bumped counters: engine=%d journal=%d moved=%d",
			r.g.Reshards(), r.sj.Reshards(), r.sj.MovedRecords())
	}
	if r.g.Lanes() != 2 {
		t.Fatalf("lanes = %d", r.g.Lanes())
	}
}

// TestReshardOneLaneInPlaceWithoutLoss reshards a one-lane group 1->4 while
// a batch is in flight on the thin link: nothing is lost or applied twice,
// epoch commits take over after the one-lane commits, and the drain
// converges to the exact source image.
func TestReshardOneLaneInPlaceWithoutLoss(t *testing.T) {
	link := netlink.Config{Propagation: 2 * time.Millisecond, BandwidthBps: 4e6}
	r := newShardedRig(t, 1, 8, link, Config{BatchMax: 8})
	if r.g.coordinated {
		t.Fatal("a one-lane group started on epoch commits")
	}
	r.g.Start()
	const writes = 128
	var inflight, directBefore int
	r.env.Process("driver", func(p *sim.Proc) {
		for i := 0; i < writes; i++ {
			r.seqWrite(p, t, i)
		}
		inflight, directBefore = r.g.lanes[0].inflight, r.g.DirectApplied()
		if _, err := r.g.Reshard(p, lanePaths(r.env, 4, link)); err != nil {
			t.Errorf("reshard: %v", err)
			return
		}
		if !r.g.AwaitReshard(p) || !r.g.CatchUp(p) {
			t.Error("resharded group never caught up")
		}
	})
	r.env.Run(0)
	if t.Failed() {
		return
	}
	if inflight == 0 {
		t.Fatal("fixture resharded with no batch in flight")
	}
	if !r.g.coordinated || r.g.Lanes() != 4 || len(r.g.lost) != 0 {
		t.Fatalf("coordinated=%v lanes=%d lost=%d", r.g.coordinated, r.g.Lanes(), len(r.g.lost))
	}
	log := r.g.ApplyLog()
	if len(log) != writes || r.g.DirectApplied() < directBefore {
		t.Fatalf("applied %d records (%d directly, %d before the reshard), want each of %d once",
			len(log), r.g.DirectApplied(), directBefore, writes)
	}
	for i, rec := range log[:r.g.DirectApplied()] {
		if rec.Seq != int64(i+1) {
			t.Fatalf("direct apply %d has seq %d", i, rec.Seq)
		}
	}
	for _, rec := range log[r.g.DirectApplied():] {
		if rec.Epoch > r.g.CommittedEpoch() {
			t.Fatalf("record of epoch %d past committed %d", rec.Epoch, r.g.CommittedEpoch())
		}
	}
	if n, exact := exactPrefix(r.presentSeqs()); n != writes || !exact {
		t.Fatalf("backup has %d writes (exact=%v), want all %d", n, exact, writes)
	}
	r.verifyConverged(t)
}

// TestReshardRebindsSurvivingLanes: Reshard promises lane k drains over
// paths[k], surviving lanes included. After a 1->2 and a 2->4 reshard,
// every lane's next batch crosses the path it was just given.
func TestReshardRebindsSurvivingLanes(t *testing.T) {
	link := netlink.Config{Propagation: time.Millisecond, BandwidthBps: 1e8}
	r := newShardedRig(t, 1, 16, link, Config{BatchMax: 8})
	r.g.Start()
	links := func(n int) ([]fabric.Path, []*netlink.Link) {
		paths := make([]fabric.Path, n)
		ls := make([]*netlink.Link, n)
		for k := range paths {
			ls[k] = netlink.New(r.env, link)
			paths[k] = ls[k]
		}
		return paths, ls
	}
	next := 0
	writeAll := func(p *sim.Proc) {
		for range r.vols {
			r.seqWrite(p, t, next)
			next++
		}
		r.g.CatchUp(p)
	}
	for _, n := range []int{2, 4} {
		paths, ls := links(n)
		r.env.Process(fmt.Sprintf("reshard-%d", n), func(p *sim.Proc) {
			writeAll(p)
			if _, err := r.g.Reshard(p, paths); err != nil {
				t.Errorf("reshard to %d: %v", n, err)
				return
			}
			r.g.AwaitReshard(p)
			writeAll(p)
		})
		r.env.Run(0)
		for k, l := range ls {
			if l.Transfers() == 0 {
				t.Errorf("after reshard to %d: lane %d never crossed its new path", n, k)
			}
		}
	}
	if n, exact := exactPrefix(r.presentSeqs()); n != next || !exact {
		t.Fatalf("backup has %d writes (exact=%v), want all %d", n, exact, next)
	}
}

// TestReshardGuards covers the refusal surface: failed-over and stopped
// engines, zero lanes, and double reshards mid-window.
func TestReshardGuards(t *testing.T) {
	link := netlink.Config{Propagation: 2 * time.Millisecond, BandwidthBps: 2e6}
	r := newShardedRig(t, 2, 8, link, Config{BatchMax: 4})
	r.g.Start()
	r.env.Process("driver", func(p *sim.Proc) {
		for i := 0; i < 64; i++ {
			r.seqWrite(p, t, i)
		}
		if _, err := r.g.Reshard(p, nil); err == nil {
			t.Error("reshard to 0 lanes must refuse")
		}
		if _, err := r.g.Reshard(p, lanePaths(r.env, 4, link)); err != nil {
			t.Errorf("first reshard: %v", err)
		}
		if r.g.Resharding() {
			if _, err := r.g.Reshard(p, lanePaths(r.env, 8, link)); err == nil {
				t.Error("reshard during open migration window must refuse")
			}
		}
		r.g.AwaitReshard(p)
		r.g.CatchUp(p)
		if _, err := r.g.Failover(); err != nil {
			t.Error(err)
		}
		if _, err := r.g.Reshard(p, lanePaths(r.env, 2, link)); err == nil {
			t.Error("reshard on a failed-over group must refuse")
		}
	})
	r.env.Run(0)
}

// TestMidShrinkFailoverIsExactEpochPrefix is the shrink-direction twin of
// the grow race above, with deliberately lopsided lanes: the surviving
// lane drains fast (staging open-epoch records early) while the retiring
// lane lags with sealed-epoch records still pending at the barrier — so
// migration stages OLDER-epoch records BEHIND newer ones on the surviving
// lane. Every failover offset must still recover an exact ack-order
// prefix.
func TestMidShrinkFailoverIsExactEpochPrefix(t *testing.T) {
	for _, d := range []time.Duration{0, time.Millisecond, 3 * time.Millisecond, 9 * time.Millisecond, 25 * time.Millisecond, 60 * time.Millisecond} {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			env := sim.NewEnv(1)
			main := storage.NewArray(env, "main", storage.Config{})
			backup := storage.NewArray(env, "backup", storage.Config{})
			r := &shardedRig{env: env, main: main, backup: backup}
			mapping := make(map[storage.VolumeID]storage.VolumeID)
			for i := 0; i < 16; i++ {
				id := storage.VolumeID(fmt.Sprintf("vol-%02d", i))
				for _, a := range []*storage.Array{main, backup} {
					if _, err := a.CreateVolume(id, 256); err != nil {
						t.Fatal(err)
					}
				}
				r.vols = append(r.vols, id)
				mapping[id] = id
			}
			sj, err := main.CreateShardedConsistencyGroup("cg", r.vols, 2)
			if err != nil {
				t.Fatal(err)
			}
			r.sj = sj
			fast := netlink.Config{Propagation: time.Millisecond, BandwidthBps: 4e7}
			slow := netlink.Config{Propagation: 8 * time.Millisecond, BandwidthBps: 5e5}
			paths := []fabric.Path{
				netlink.NewPair(env, fast).Forward, // lane 0 races ahead
				netlink.NewPair(env, slow).Forward, // lane 1 lags behind the seals
			}
			g, err := NewShardedGroup(env, "cg", sj, backup, mapping, paths, Config{BatchMax: 4})
			if err != nil {
				t.Fatal(err)
			}
			r.g = g
			g.Start()

			const writes = 160
			resharded := env.NewEvent()
			env.Process("writer", func(p *sim.Proc) {
				for i := 0; i < writes; i++ {
					r.seqWrite(p, t, i)
					if i == writes/2 {
						if _, err := g.Reshard(p, paths[:1]); err != nil {
							t.Errorf("reshard: %v", err)
							return
						}
						resharded.Trigger()
					}
				}
			})
			env.Process("disaster", func(p *sim.Proc) {
				p.Wait(resharded)
				p.Sleep(d)
				if _, err := g.Failover(); err != nil {
					t.Errorf("failover: %v", err)
				}
			})
			env.Run(0)
			if t.Failed() {
				return
			}
			n, exact := exactPrefix(r.presentSeqs())
			if !exact {
				t.Fatalf("failover image is not an exact ack-order prefix (cut=%d of %d)", n, writes)
			}
		})
	}
}

// TestShrinkMigrationBehindOpenEpochStillCommitsWhole pins the nastiest
// migration interleaving: the reshard fires at the exact instant the
// surviving lane has already staged OPEN-epoch records while the retiring
// lane still holds SEALED-epoch records pending — so migration appends
// older-epoch records BEHIND newer ones in the surviving lane's staged
// list. Epoch commits during the window must still include every record of
// the sealed epoch (no prefix-scan shortcut), and a failover right after
// the first such commit must recover an exact ack-order prefix.
func TestShrinkMigrationBehindOpenEpochStillCommitsWhole(t *testing.T) {
	env := sim.NewEnv(1)
	main := storage.NewArray(env, "main", storage.Config{})
	backup := storage.NewArray(env, "backup", storage.Config{})
	r := &shardedRig{env: env, main: main, backup: backup}
	mapping := make(map[storage.VolumeID]storage.VolumeID)
	for i := 0; i < 16; i++ {
		id := storage.VolumeID(fmt.Sprintf("vol-%02d", i))
		for _, a := range []*storage.Array{main, backup} {
			if _, err := a.CreateVolume(id, 256); err != nil {
				t.Fatal(err)
			}
		}
		r.vols = append(r.vols, id)
		mapping[id] = id
	}
	sj, err := main.CreateShardedConsistencyGroup("cg", r.vols, 2)
	if err != nil {
		t.Fatal(err)
	}
	r.sj = sj
	fast := netlink.Config{Propagation: 200 * time.Microsecond, BandwidthBps: 1e8}
	slow := netlink.Config{Propagation: 8 * time.Millisecond, BandwidthBps: 5e5}
	paths := []fabric.Path{
		netlink.NewPair(env, fast).Forward,
		netlink.NewPair(env, slow).Forward,
	}
	g, err := NewShardedGroup(env, "cg", sj, backup, mapping, paths, Config{BatchMax: 4})
	if err != nil {
		t.Fatal(err)
	}
	r.g = g
	g.Start()

	const writes = 240
	done := env.NewEvent()
	env.Process("writer", func(p *sim.Proc) {
		defer done.Trigger()
		for i := 0; i < writes; i++ {
			r.seqWrite(p, t, i)
		}
	})
	env.Process("reshard-then-cut", func(p *sim.Proc) {
		// Wait for the hazard: surviving lane 0 staged past the epoch the
		// retiring lane 1 still owes (its oldest pending record).
		deadline := p.Now() + 10*time.Second
		hazard := false
		for p.Now() < deadline {
			l0, l1 := g.lanes[0], g.lanes[1]
			if n := len(l0.staged); n > 0 {
				if e1, ok := l1.journal.OldestPendingEpoch(); ok && e1 < l0.staged[n-1].Epoch {
					hazard = true
					break
				}
			}
			p.Sleep(100 * time.Microsecond)
		}
		if !hazard {
			t.Error("hazard precondition never arose (rig timing changed?)")
			return
		}
		commits0 := g.EpochCommits()
		if _, err := g.Reshard(p, paths[:1]); err != nil {
			t.Errorf("reshard: %v", err)
			return
		}
		// Split the pair right after the FIRST migration-window commit
		// exposes an image — the instant a prefix-scan shortcut over the
		// non-monotone staged list would leave a cross-volume gap.
		for p.Now() < deadline && g.EpochCommits() == commits0 {
			p.Sleep(50 * time.Microsecond)
		}
		if g.EpochCommits() == commits0 {
			t.Error("no epoch commit landed inside the migration window")
			return
		}
		if _, err := g.Failover(); err != nil {
			t.Errorf("failover: %v", err)
		}
	})
	env.Run(0)
	if t.Failed() {
		return
	}
	n, exact := exactPrefix(r.presentSeqs())
	if !exact {
		t.Fatalf("failover image is not an exact ack-order prefix (cut=%d of %d): a migration-window commit skipped staged records of its own epoch", n, writes)
	}
}
