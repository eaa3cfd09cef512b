package replication_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/invariants"
	"repro/internal/netlink"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/storage"
)

// TestReshardIntoQueuedOneLaneCommit races a 1->4 reshard into a one-lane
// commit that is queued behind scans holding every backup controller slot.
// The commit hands its staged records to the epoch path, and the apply log
// passes CheckCommitBoundary.
func TestReshardIntoQueuedOneLaneCommit(t *testing.T) {
	env := sim.NewEnv(1)
	main := storage.NewArray(env, "main", storage.Config{})
	backup := storage.NewArray(env, "backup", storage.Config{})
	var vols []storage.VolumeID
	mapping := map[storage.VolumeID]storage.VolumeID{}
	for i := 0; i < 8; i++ {
		id := storage.VolumeID(fmt.Sprintf("vol-%d", i))
		for _, a := range []*storage.Array{main, backup} {
			if _, err := a.CreateVolume(id, 64); err != nil {
				t.Fatal(err)
			}
		}
		vols, mapping[id] = append(vols, id), id
	}
	sj, err := main.CreateShardedConsistencyGroup("cg", vols, 1)
	if err != nil {
		t.Fatal(err)
	}
	link := netlink.Config{Propagation: 2 * time.Millisecond}
	paths := func(n int) []fabric.Path {
		out := make([]fabric.Path, n)
		for k := range out {
			out[k] = netlink.NewPair(env, link).Forward
		}
		return out
	}
	g, err := replication.NewShardedGroup(env, "cg", sj, backup, mapping, paths(1), replication.Config{BatchMax: 8})
	if err != nil {
		t.Fatal(err)
	}
	scan, err := backup.CreateVolume("scan", 2048)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < backup.Config().Parallelism; k++ {
		env.Process("scan", func(p *sim.Proc) {
			if _, err := scan.ReadRange(p, 0, 2048); err != nil {
				t.Error(err)
			}
		})
	}
	g.Start()
	const writes = 128
	write := func(p *sim.Proc, i int) {
		v, _ := main.Volume(vols[i%len(vols)])
		if _, err := v.Write(p, int64(i/len(vols)), bytes.Repeat([]byte{byte(i + 1)}, 4096)); err != nil {
			t.Errorf("write %d: %v", i, err)
		}
		p.Sleep(300 * time.Microsecond)
	}
	env.Process("driver", func(p *sim.Proc) {
		for i := 0; i < writes/2; i++ {
			write(p, i)
		}
		p.Sleep(10 * time.Millisecond)
		if g.AppliedRecords() != 0 || g.Backlog() == 0 {
			t.Errorf("no commit queued at the reshard: applied %d, backlog %d", g.AppliedRecords(), g.Backlog())
		}
		if _, err := g.Reshard(p, paths(4)); err != nil {
			t.Errorf("reshard: %v", err)
			return
		}
		for i := writes / 2; i < writes; i++ {
			write(p, i)
		}
		if !g.AwaitReshard(p) || !g.CatchUp(p) {
			t.Error("resharded group never caught up")
		}
		g.Stop()
	})
	env.Run(0)
	if t.Failed() {
		return
	}
	if v := invariants.CheckCommitBoundary("t", g); len(v) != 0 {
		t.Fatalf("commit boundary: %v", v)
	}
	if len(g.ApplyLog()) != writes || g.DirectApplied() != 0 || g.EpochCommits() == 0 {
		t.Fatalf("applied %d records (%d by one-lane commits, %d epochs), want all %d by epochs",
			len(g.ApplyLog()), g.DirectApplied(), g.EpochCommits(), writes)
	}
	for _, id := range vols {
		sv, _ := main.Volume(id)
		tv, _ := backup.Volume(id)
		for _, b := range sv.WrittenBlocks() {
			if !bytes.Equal(sv.Peek(b), tv.Peek(b)) {
				t.Fatalf("volume %s block %d diverged", id, b)
			}
		}
	}
}
