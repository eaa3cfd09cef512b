package invariants

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"repro/internal/consistency"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/storage"
)

// stamped writes the big-endian sequence stamp seq into block b of v — the
// E13/E15 write-heavy-tenant block format StampedPrefix scans for.
func stamped(t *testing.T, env *sim.Env, v *storage.Volume, b int64, seq uint64) {
	t.Helper()
	buf := make([]byte, v.BlockSize())
	binary.BigEndian.PutUint64(buf, seq)
	env.Process("w", func(p *sim.Proc) {
		if _, err := v.Write(p, b, buf); err != nil {
			t.Error(err)
		}
	})
	env.Run(0)
}

func TestStampedPrefixExactAndLeaked(t *testing.T) {
	env := sim.NewEnv(1)
	a := storage.NewArray(env, "m", storage.Config{})
	v1, _ := a.CreateVolume("v1", 16)
	v2, _ := a.CreateVolume("v2", 16)
	stamped(t, env, v1, 0, 1)
	stamped(t, env, v2, 0, 2)
	stamped(t, env, v1, 1, 3)
	if k, exact := StampedPrefix([]*storage.Volume{v1, v2}); k != 3 || !exact {
		t.Fatalf("prefix = %d exact=%v, want 3 exact", k, exact)
	}
	// A leaked write past a hole: {1,2,3,5} is a prefix of 3 but NOT exact.
	stamped(t, env, v2, 1, 5)
	if k, exact := StampedPrefix([]*storage.Volume{v1, v2}); k != 3 || exact {
		t.Fatalf("leaked image: prefix = %d exact=%v, want 3 inexact", k, exact)
	}
}

// txnSet is a minimal consistency.CommitSet for building Reports.
type txnSet []uint64

func (s txnSet) HasCommitted(tx uint64) bool {
	for _, x := range s {
		if x == tx {
			return true
		}
	}
	return false
}
func (s txnSet) CommittedTxns() []uint64 { return s }

func TestCheckConsistentCut(t *testing.T) {
	order := []uint64{1, 2, 3}
	// Clean lost tail: no violations.
	rep := consistency.Verify(txnSet{1, 2}, txnSet{1}, order, order)
	if vs := CheckConsistentCut("t0", rep); len(vs) != 0 {
		t.Fatalf("clean cut flagged: %v", vs)
	}
	// Orphan stock commit: the paper's collapse.
	rep = consistency.Verify(txnSet{1}, txnSet{1, 2}, order, order)
	vs := CheckConsistentCut("t0", rep)
	if len(vs) != 1 || !strings.Contains(vs[0].String(), "collapsed") {
		t.Fatalf("collapse not reported: %v", vs)
	}
	if vs[0].Tenant != "t0" {
		t.Fatalf("tenant = %q", vs[0].Tenant)
	}
	// Hole in the sales prefix.
	rep = consistency.Verify(txnSet{1, 3}, txnSet{1, 3}, order, order)
	vs = CheckConsistentCut("t0", rep)
	if len(vs) == 0 {
		t.Fatal("prefix hole not reported")
	}
}

func TestCheckZeroResidue(t *testing.T) {
	if vs := CheckZeroResidue("t0", nil); len(vs) != 0 {
		t.Fatalf("clean residue flagged: %v", vs)
	}
	vs := CheckZeroResidue("t0", []string{"main/volume/t0-sales", "main/journal/t0-cg"})
	if len(vs) != 2 {
		t.Fatalf("want one violation per leak, got %v", vs)
	}
}

func TestCheckFailClosedPlainJournal(t *testing.T) {
	env := sim.NewEnv(1)
	a := storage.NewArray(env, "m", storage.Config{})
	if _, err := a.CreateVolume("v", 16); err != nil {
		t.Fatal(err)
	}
	j, err := a.CreateConsistencyGroup("cg", []storage.VolumeID{"v"})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := a.Volume("v")
	stamped(t, env, v, 0, 1) // one pending record in the journal
	if vs := CheckFailClosed("t0", a, j); len(vs) != 0 {
		t.Fatalf("unbounded journal flagged: %v", vs)
	}
	// Squeeze the capacity under the backlog: must fail closed immediately,
	// members tracking — and then the checker is clean again.
	j.SetCapacityBytes(1)
	if !j.Overflowed() {
		t.Fatal("squeeze under backlog did not overflow")
	}
	if !v.TrackingChanges() {
		t.Fatal("overflowed member not change tracking")
	}
	if vs := CheckFailClosed("t0", a, j); len(vs) != 0 {
		t.Fatalf("fail-closed overflow flagged: %v", vs)
	}
	// Break the contract behind the checker's back: member stops tracking.
	v.StopChangeTracking()
	vs := CheckFailClosed("t0", a, j)
	if len(vs) != 1 || !strings.Contains(vs[0].Detail, "not change tracking") {
		t.Fatalf("broken tracking not reported: %v", vs)
	}
}

func TestCheckFailClosedShardedAllOrNone(t *testing.T) {
	env := sim.NewEnv(1)
	a := storage.NewArray(env, "m", storage.Config{})
	for _, id := range []storage.VolumeID{"v0", "v1", "v2", "v3"} {
		if _, err := a.CreateVolume(id, 16); err != nil {
			t.Fatal(err)
		}
	}
	sj, err := a.CreateShardedConsistencyGroup("cg", []storage.VolumeID{"v0", "v1", "v2", "v3"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range []storage.VolumeID{"v0", "v1", "v2", "v3"} {
		v, _ := a.Volume(id)
		stamped(t, env, v, 0, uint64(i+1))
	}
	if vs := CheckFailClosedSharded("t0", a, sj); len(vs) != 0 {
		t.Fatalf("healthy group flagged: %v", vs)
	}
	// Squeeze: the whole group fails closed even though per-shard backlogs
	// differ, and the checker stays clean.
	sj.SetCapacityPerShard(1)
	if !sj.Overflowed() {
		t.Fatal("squeeze under backlog did not overflow the group")
	}
	for _, sh := range sj.Shards() {
		if !sh.Overflowed() {
			t.Fatalf("shard %s escaped the group overflow", sh.ID())
		}
	}
	if vs := CheckFailClosedSharded("t0", a, sj); len(vs) != 0 {
		t.Fatalf("all-or-none overflow flagged: %v", vs)
	}
	// Violate all-or-none: clear one shard while the group stays overflowed.
	sj.Shards()[0].ClearOverflow()
	vs := CheckFailClosedSharded("t0", a, sj)
	found := false
	for _, v := range vs {
		if strings.Contains(v.Detail, "all-or-none") {
			found = true
		}
	}
	if !found {
		t.Fatalf("partial overflow not reported: %v", vs)
	}
}

// fakeRep satisfies replication.Replicator via interface embedding; only
// Name() is ever called by CheckNoOrphanGroups.
type fakeRep struct {
	replication.Replicator
	name string
}

func (f fakeRep) Name() string { return f.name }

func TestCheckNoOrphanGroups(t *testing.T) {
	owner := map[string]string{"g-a": "ns-a", "g-b": "ns-b"}
	groups := []replication.Replicator{fakeRep{name: "g-b"}, fakeRep{name: "g-a"}, fakeRep{name: "g-c"}}
	nsOf := func(g replication.Replicator) string { return owner[g.Name()] }
	live := func(ns string) bool { return ns == "ns-a" }
	vs := CheckNoOrphanGroups(groups, nsOf, live)
	// g-a is owned and live; g-b outlived its tenant; g-c is unowned.
	// The checker sorts by name, so g-b's violation precedes g-c's.
	if len(vs) != 2 {
		t.Fatalf("violations = %v", vs)
	}
	if !strings.Contains(vs[0].String(), "g-b") || !strings.Contains(vs[1].String(), "g-c") {
		t.Fatalf("order/content wrong: %v", vs)
	}
}

func TestCheckSharedZeroBlock(t *testing.T) {
	env := sim.NewEnv(1)
	m := storage.NewArray(env, "m", storage.Config{})
	b := storage.NewArray(env, "b", storage.Config{})
	v, _ := b.CreateVolume("v", 4)
	if vs := CheckSharedZeroBlock(m, b); len(vs) != 0 {
		t.Fatalf("clean arrays flagged: %v", vs)
	}
	env.Process("r", func(p *sim.Proc) {
		blocks, _ := v.ReadRange(p, 0, 4)
		blocks[3][0] = 1 // writes into the shared zero block
	})
	env.Run(0)
	vs := CheckSharedZeroBlock(m, b)
	if len(vs) != 1 || !errors.Is(vs[0].Err, storage.ErrZeroBlockWritten) ||
		!strings.Contains(vs[0].Detail, "array b") {
		t.Fatalf("want one typed violation naming array b, got %v", vs)
	}
}
