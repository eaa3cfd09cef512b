package replication

import (
	"testing"
	"time"

	"repro/internal/netlink"
	"repro/internal/sim"
	"repro/internal/storage"
)

// scanSpan is how long holdController's scans occupy the backup
// controller: 2,048 blocks at the default 100µs read latency.
const scanSpan = 2048 * 100 * time.Microsecond

// holdController starts one whole-volume scan per controller slot of a, so
// every slot is busy for scanSpan from now: the shape of the analytics
// scans that hold the backup controller in the snapshot-read workload.
func holdController(t *testing.T, a *storage.Array) {
	t.Helper()
	vol, err := a.CreateVolume("scan", 2048)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < a.Config().Parallelism; k++ {
		a.Env().Process("scan", func(p *sim.Proc) {
			if _, err := vol.ReadRange(p, 0, 2048); err != nil {
				t.Error(err)
			}
		})
	}
}

// pipelineRounds is how many write rounds writeRounds issues; each round
// writes one sales and one stock block.
const pipelineRounds = 3

// writeRounds writes pipelineRounds rounds 20ms apart, so the lane takes
// each round as its own batch.
func (r *rig) writeRounds(p *sim.Proc) {
	for i := 0; i < pipelineRounds; i++ {
		r.sales.Write(p, int64(i), fill(r.main, byte(0x10+i)))
		r.stock.Write(p, int64(i), fill(r.main, byte(0x20+i)))
		p.Sleep(20 * time.Millisecond)
	}
}

// TestOneLaneTransfersWhileCommitQueues: with the backup controller held
// by long scans, the lane keeps transferring batch after batch while the
// commit waits for a slot; the first commit then installs every batch
// staged by the time of the grant, and the apply log is the exact
// shard-order prefix.
func TestOneLaneTransfersWhileCommitQueues(t *testing.T) {
	r := newRig(t, netlink.Config{Propagation: 5 * time.Millisecond})
	holdController(t, r.backup)
	g := r.newCG(t, Config{})
	g.Start()
	const writes = 2 * pipelineRounds
	var perCommit []int64
	r.env.Process("watch", func(p *sim.Proc) {
		for g.AppliedRecords() < writes {
			if p.WaitAny(g.committedEv(), g.stopEv) == 1 {
				return
			}
			perCommit = append(perCommit, g.AppliedRecords())
		}
	})
	r.env.Process("io", func(p *sim.Proc) {
		r.writeRounds(p)
		if g.AppliedRecords() != 0 {
			t.Errorf("applied %d records while every controller slot was held", g.AppliedRecords())
		}
		if got := len(g.lanes[0].staged); got != writes {
			t.Errorf("staged %d records before the grant, want all %d", got, writes)
		}
		if got := r.links.Forward.Transfers(); got < pipelineRounds {
			t.Errorf("lane made %d transfers before the first apply, want >= %d", got, pipelineRounds)
		}
		g.CatchUp(p)
		g.Stop()
	})
	r.env.Run(0)
	if len(perCommit) == 0 || perCommit[0] != writes {
		t.Fatalf("applied-record count after each commit = %v, want the first to install all %d", perCommit, writes)
	}
	log := g.ApplyLog()
	if len(log) != writes || g.DirectApplied() != writes {
		t.Fatalf("apply log has %d records (%d direct), want %d", len(log), g.DirectApplied(), writes)
	}
	for i, rec := range log {
		if rec.Seq != int64(i+1) {
			t.Fatalf("apply log record %d has seq %d: not the shard-order prefix", i, rec.Seq)
		}
	}
}

// TestOneLaneStopWhileCommitQueued: a split while the commit waits for a
// controller slot installs nothing; the staged records stay in
// UnappliedRecords and keep counting in the RPO.
func TestOneLaneStopWhileCommitQueued(t *testing.T) {
	r := newRig(t, netlink.Config{Propagation: 5 * time.Millisecond})
	holdController(t, r.backup)
	g := r.newCG(t, Config{})
	g.Start()
	const writes = 2 * pipelineRounds
	r.env.Process("io", func(p *sim.Proc) {
		r.writeRounds(p)
		if len(g.lanes[0].staged) != writes {
			t.Errorf("staged %d records before the split, want %d", len(g.lanes[0].staged), writes)
		}
		g.Stop()
	})
	r.env.Run(0)
	if r.env.Now() < scanSpan {
		t.Fatalf("run ended at %v, before the scans released the controller", r.env.Now())
	}
	if len(g.ApplyLog()) != 0 || g.AppliedRecords() != 0 {
		t.Fatalf("a stopped group installed %d records", len(g.ApplyLog()))
	}
	unapplied := g.UnappliedRecords()
	if len(unapplied) != writes || unapplied[0].Seq != 1 {
		t.Fatalf("UnappliedRecords has %d records, want the %d staged from seq 1", len(unapplied), writes)
	}
	now := r.env.Now()
	if rpo := g.RPO(now); rpo != now-unapplied[0].AckedAt || unapplied[0].AckedAt >= 20*time.Millisecond {
		t.Fatalf("RPO = %v at %v, want the age of the first staged record (acked at %v)", rpo, now, unapplied[0].AckedAt)
	}
	for _, id := range []storage.VolumeID{"sales", "stock"} {
		tv, _ := r.backup.Volume(id)
		if n := len(tv.WrittenBlocks()); n != 0 {
			t.Fatalf("backup %s holds %d blocks after a split before any commit", id, n)
		}
	}
}

// TestOneLaneCycleAllocations pins the allocation cost of one steady-state
// one-lane cycle: append a record, transfer it, stage it, commit it. The
// lane's and the commit process's wait sets are reused, so the four that
// remain are the payload copies stored at the source and at the target and
// the re-armed journal and progress events.
func TestOneLaneCycleAllocations(t *testing.T) {
	r := newRig(t, netlink.Config{Propagation: time.Millisecond})
	g := r.newCG(t, Config{})
	g.Start()
	buf := fill(r.main, 0x5A)
	stop := false
	r.env.Process("io", func(p *sim.Proc) {
		for i := int64(0); !stop; i++ {
			start := p.Now()
			r.sales.Write(p, i%256, buf)
			p.Sleep(10*time.Millisecond - (p.Now() - start))
		}
	})
	step := func() { r.env.Run(r.env.Now() + 10*time.Millisecond) }
	for i := 0; i < 300; i++ {
		step() // warm up: grow the slab, queues, staged list and apply log
	}
	before := g.AppliedRecords()
	got := testing.AllocsPerRun(200, step)
	if g.AppliedRecords()-before < 200 {
		t.Fatalf("committed %d records over 200 cycles", g.AppliedRecords()-before)
	}
	const want = 4
	if got > want {
		t.Fatalf("steady-state one-lane cycle allocates %.1f times, want <= %d", got, want)
	}
	stop = true
	g.Stop()
	r.env.Run(0)
}
