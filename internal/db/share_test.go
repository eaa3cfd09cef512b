package db

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/storage"
)

// runSim runs fn as the only process on env and fails tb with its error
// once the simulation is done (failing inside the process would strand the
// kernel waiting for it).
func runSim(tb testing.TB, env *sim.Env, fn func(p *sim.Proc) error) {
	tb.Helper()
	var err error
	env.Process("t", func(p *sim.Proc) { err = fn(p) })
	env.Run(0)
	if err != nil {
		tb.Fatal(err)
	}
}

// commitRow commits a single-row transaction.
func commitRow(p *sim.Proc, d *DB, key uint64, val string) error {
	tx := d.Begin()
	if err := tx.Put(key, []byte(val)); err != nil {
		return err
	}
	return tx.Commit(p)
}

// DB.Scan caches pages pulled by a shared ReadRange. Commits that upsert
// into those pages, including ones never written on disk (whose range entry
// is the array's zero block), must write into private copies: the volume's
// stored blocks, a concurrent snapshot's range result and the zero block
// stay unchanged.
func TestScanThenCommitLeavesSharedBuffersIntact(t *testing.T) {
	env := sim.NewEnv(1)
	a := storage.NewArray(env, "arr", storage.Config{})
	vol, _ := a.CreateVolume("v", 256)
	runSim(t, env, func(p *sim.Proc) error {
		d, err := Open(p, "sales", vol, Config{})
		if err != nil {
			return err
		}
		for k := uint64(1); k <= 20; k++ {
			if err := commitRow(p, d, k, fmt.Sprintf("v1-%d", k)); err != nil {
				return err
			}
		}
		if err := d.Checkpoint(p); err != nil {
			return err
		}
		snap, _ := a.CreateSnapshot("s", "v")
		snapRange, err := snap.ReadRange(p, 0, 256)
		if err != nil {
			return err
		}
		wantSnap := make([][]byte, len(snapRange))
		for i, b := range snapRange {
			wantSnap[i] = bytes.Clone(b)
		}
		d2, err := Open(p, "sales", vol, Config{}) // cold page cache
		if err != nil {
			return err
		}
		first, last := d2.dataBase, d2.dataBase+d2.dataPages
		var wantVol [][]byte
		for b := first; b < last; b++ {
			wantVol = append(wantVol, vol.Peek(b))
		}
		rows := 0
		if err := d2.Scan(p, func(Row) bool { rows++; return true }); err != nil {
			return err
		}
		if rows != 20 {
			return fmt.Errorf("scan saw %d rows, want 20", rows)
		}
		// Key 5's page was written on disk; key 150's page never was.
		if err := commitRow(p, d2, 5, "v2-5"); err != nil {
			return err
		}
		if err := commitRow(p, d2, 150, "new-150"); err != nil {
			return err
		}
		if d2.Checkpoints() != 1 { // the recovery checkpoint at Open
			return fmt.Errorf("checkpoints = %d: a data-page flush would hide aliasing", d2.Checkpoints())
		}
		for b := first; b < last; b++ {
			if !bytes.Equal(vol.Peek(b), wantVol[b-first]) {
				return fmt.Errorf("stored data block %d changed by an unflushed commit", b)
			}
		}
		for i := range wantSnap {
			if !bytes.Equal(snapRange[i], wantSnap[i]) {
				return fmt.Errorf("snapshot range block %d changed", i)
			}
		}
		if err := a.CheckZeroBlock(); err != nil {
			return err
		}
		for key, want := range map[uint64]string{5: "v2-5", 150: "new-150", 6: "v1-6"} {
			if v, ok, _ := d2.Get(p, key); !ok || string(v) != want {
				return fmt.Errorf("key %d = %q (found %v), want %q", key, v, ok, want)
			}
		}
		return nil
	})
}

// View pages redone from the WAL take precedence over the preloaded image
// for both Get and Scan, and redoing them never writes into the image.
func TestViewWALPagesOverridePreloadedImage(t *testing.T) {
	env := sim.NewEnv(1)
	a := storage.NewArray(env, "arr", storage.Config{})
	vol, _ := a.CreateVolume("v", 256)
	runSim(t, env, func(p *sim.Proc) error {
		d, _ := Open(p, "sales", vol, Config{})
		for key, val := range map[uint64]string{7: "on-disk", 3: "checkpointed"} {
			if err := commitRow(p, d, key, val); err != nil {
				return err
			}
		}
		d.Checkpoint(p)
		// Key 7's page on disk now holds the old value; key 150's page was
		// never written on disk.
		for key, val := range map[uint64]string{7: "wal-only", 150: "wal-new"} {
			if err := commitRow(p, d, key, val); err != nil {
				return err
			}
		}
		snap, _ := a.CreateSnapshot("s", "v")
		view, err := OpenView(p, "analytics", snap, Config{})
		if err != nil {
			return err
		}
		want := map[uint64]string{7: "wal-only", 150: "wal-new", 3: "checkpointed"}
		got := map[uint64]string{}
		dups := 0
		if err := view.Scan(p, func(r Row) bool {
			if _, dup := got[r.Key]; dup {
				dups++
			}
			got[r.Key] = string(r.Val)
			return true
		}); err != nil {
			return err
		}
		if view.image == nil {
			return fmt.Errorf("scan did not preload the image")
		}
		if dups > 0 || fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Errorf("scan = %v (%d duplicate keys), want %v", got, dups, want)
		}
		for key, w := range want {
			if v, ok, _ := view.Get(p, key); !ok || string(v) != w {
				return fmt.Errorf("get %d after scan = %q (found %v), want %q", key, v, ok, w)
			}
		}
		if row, ok := pageLookup(snap.Peek(d.pageBlock(7)), 7); !ok || string(row.Val) != "on-disk" {
			return fmt.Errorf("snapshot page of key 7 = %q, want the checkpointed value", row.Val)
		}
		return a.CheckZeroBlock()
	})
}

// BenchmarkViewScan opens an analytics view on a 2,048-block snapshot with
// ~2% of its data pages written plus a few WAL-only commits, and scans it:
// the replay, the fused preload and the row visit of one analytics query.
func BenchmarkViewScan(b *testing.B) {
	env := sim.NewEnv(1)
	a := storage.NewArray(env, "arr", storage.Config{})
	vol, _ := a.CreateVolume("v", 2048)
	runSim(b, env, func(p *sim.Proc) error {
		d, err := Open(p, "sales", vol, Config{})
		if err != nil {
			return err
		}
		for k := uint64(1); k <= 40; k++ {
			if err := commitRow(p, d, k*47, "order"); err != nil {
				return err
			}
		}
		d.Checkpoint(p)
		for k := uint64(1); k <= 4; k++ {
			if err := commitRow(p, d, k*47, "updated"); err != nil {
				return err
			}
		}
		snap, _ := a.CreateSnapshot("s", "v")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			view, err := OpenView(p, "analytics", snap, Config{})
			if err != nil {
				return err
			}
			rows := 0
			if err := view.Scan(p, func(Row) bool { rows++; return true }); err != nil || rows != 40 {
				return fmt.Errorf("scan: %d rows, err %v", rows, err)
			}
		}
		return nil
	})
}
