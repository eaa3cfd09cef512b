package storage

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/sim"
)

// deepCopy clones a range result so later comparisons do not alias it.
func deepCopy(blocks [][]byte) [][]byte {
	out := make([][]byte, len(blocks))
	for i, b := range blocks {
		out[i] = bytes.Clone(b)
	}
	return out
}

func sameImage(t *testing.T, when string, got, want [][]byte) {
	t.Helper()
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: block %d changed: first byte %#x, want %#x", when, i, got[i][0], want[i][0])
		}
	}
}

// A snapshot ReadRange result shares the stored buffers; it must still be
// the snapshot-time image after the parent overwrites blocks (written and
// never-written ones), after a restore and after the snapshot is deleted.
func TestSnapshotReadRangeSurvivesOverwriteRestoreDelete(t *testing.T) {
	env, a := newTestArray(t)
	v, _ := a.CreateVolume("v", 8)
	for _, b := range []int64{1, 3, 4} {
		if err := v.Poke(b, block(a, byte(0x10+b))); err != nil {
			t.Fatal(err)
		}
	}
	s, _ := a.CreateSnapshot("s", "v")
	var got [][]byte
	env.Process("r", func(p *sim.Proc) {
		var err error
		if got, err = s.ReadRange(p, 0, 8); err != nil {
			t.Error(err)
		}
	})
	env.Run(0)
	want := deepCopy(got)
	if want[0][0] != 0 || want[3][0] != 0x13 {
		t.Fatalf("snapshot image wrong: %#x %#x", want[0][0], want[3][0])
	}

	env.Process("damage", func(p *sim.Proc) {
		for _, b := range []int64{0, 1, 3, 7} {
			if _, err := v.Write(p, b, block(a, 0xEE)); err != nil {
				t.Error(err)
			}
		}
	})
	env.Run(0)
	sameImage(t, "after parent overwrites", got, want)

	env.Process("restore", func(p *sim.Proc) {
		if err := a.RestoreSnapshot(p, "s"); err != nil {
			t.Error(err)
		}
		// Overwrite the restored (now shared) buffers once more.
		v.Write(p, 3, block(a, 0xDD))
	})
	env.Run(0)
	sameImage(t, "after restore", got, want)
	if v.Peek(1)[0] != 0x11 || v.Peek(0)[0] != 0 || v.Peek(3)[0] != 0xDD {
		t.Fatal("restore did not rewind the parent")
	}

	if err := a.DeleteSnapshot("s"); err != nil {
		t.Fatal(err)
	}
	sameImage(t, "after delete", got, want)
	if err := a.CheckZeroBlock(); err != nil {
		t.Fatal(err)
	}
}

// A clone shares the snapshot's buffers; writes to the clone and to the
// parent must not show through each other.
func TestCloneSharesButIsolatesBuffers(t *testing.T) {
	env, a := newTestArray(t)
	v, _ := a.CreateVolume("v", 4)
	v.Poke(0, block(a, 0x01))
	a.CreateSnapshot("s", "v")
	var clone *Volume
	env.Process("clone", func(p *sim.Proc) {
		var err error
		if clone, err = a.CloneVolume(p, "s", "c"); err != nil {
			t.Error(err)
			return
		}
		clone.Write(p, 0, block(a, 0x02))
		v.Write(p, 0, block(a, 0x03))
	})
	env.Run(0)
	s, _ := a.Snapshot("s")
	if clone.Peek(0)[0] != 0x02 || v.Peek(0)[0] != 0x03 || s.Peek(0)[0] != 0x01 {
		t.Fatalf("clone %#x parent %#x snapshot %#x", clone.Peek(0)[0], v.Peek(0)[0], s.Peek(0)[0])
	}
}

// Read and Peek hand out caller-owned copies: writing into them changes
// nothing stored, not even for unwritten blocks.
func TestReadAndPeekAreCallerOwned(t *testing.T) {
	env, a := newTestArray(t)
	v, _ := a.CreateVolume("v", 4)
	v.Poke(1, block(a, 0x01))
	s, _ := a.CreateSnapshot("s", "v")
	env.Process("r", func(p *sim.Proc) {
		for _, b := range []int64{0, 1} {
			got, _ := v.Read(p, b)
			got[0] = 0xFF
			got, _ = s.Read(p, b)
			got[0] = 0xFF
			v.Peek(b)[0] = 0xFF
			s.Peek(b)[0] = 0xFF
		}
	})
	env.Run(0)
	if v.Peek(0)[0] != 0 || v.Peek(1)[0] != 0x01 || s.Peek(1)[0] != 0x01 {
		t.Fatal("writing a Read/Peek result changed stored data")
	}
	if err := a.CheckZeroBlock(); err != nil {
		t.Fatal(err)
	}
}

// Writing into a ReadRange result breaks the sharing contract; for an
// unwritten block that corrupts the array's zero block, and CheckZeroBlock
// must catch it with its typed error.
func TestCheckZeroBlockCatchesSharedWrite(t *testing.T) {
	env, a := newTestArray(t)
	v, _ := a.CreateVolume("v", 4)
	env.Process("r", func(p *sim.Proc) {
		got, _ := v.ReadRange(p, 0, 4)
		got[2][100] = 0x7F // the contract violation under test
	})
	env.Run(0)
	err := a.CheckZeroBlock()
	if !errors.Is(err, ErrZeroBlockWritten) {
		t.Fatalf("err = %v, want ErrZeroBlockWritten", err)
	}
}

// ReadRange allocates only its result slice: one allocation per call,
// however many blocks it covers and whether or not they were written.
func TestReadRangeOneAllocationPerCall(t *testing.T) {
	for _, count := range []int{1, 64, 2048} {
		env, a := newTestArray(t)
		v, _ := a.CreateVolume("v", 2048)
		for b := int64(0); b < 2048; b += 50 {
			v.Poke(b, block(a, 1))
		}
		s, _ := a.CreateSnapshot("s", "v")
		for b := int64(0); b < 2048; b += 100 {
			v.Poke(b, block(a, 2)) // some blocks served from the COW set
		}
		var volAllocs, snapAllocs float64
		env.Process("r", func(p *sim.Proc) {
			volAllocs = testing.AllocsPerRun(50, func() { v.ReadRange(p, 0, count) })
			snapAllocs = testing.AllocsPerRun(50, func() { s.ReadRange(p, 0, count) })
		})
		env.Run(0)
		if volAllocs != 1 || snapAllocs != 1 {
			t.Errorf("count %d: Volume.ReadRange %v allocs, Snapshot.ReadRange %v allocs; want 1 each",
				count, volAllocs, snapAllocs)
		}
	}
}

// benchVolume returns a 2,048-block volume with every step-th block
// written, and a snapshot of it taken before a second pass overwrote the
// same blocks (so snapshot reads go through the COW set).
func benchVolume(b *testing.B, step int64) (*sim.Env, *Volume, *Snapshot) {
	env := sim.NewEnv(1)
	a := NewArray(env, "bench", Config{})
	v, _ := a.CreateVolume("v", 2048)
	data := make([]byte, a.Config().BlockSize)
	for blk := int64(0); blk < 2048; blk += step {
		data[0] = byte(blk)
		v.Poke(blk, data)
	}
	s, _ := a.CreateSnapshot("s", "v")
	for blk := int64(0); blk < 2048; blk += step {
		data[0] = ^byte(blk)
		v.Poke(blk, data)
	}
	return env, v, s
}

func benchRange(b *testing.B, read func(p *sim.Proc) ([][]byte, error), env *sim.Env) {
	b.ReportAllocs()
	env.Process("bench", func(p *sim.Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := read(p); err != nil {
				b.Error(err)
				return
			}
		}
	})
	env.Run(0)
}

// Sparse is ~2% of blocks written (the shape of a small database volume),
// full is every block written.
var benchFills = []struct {
	name string
	step int64
}{{"sparse", 50}, {"full", 1}}

func BenchmarkVolumeReadRange(b *testing.B) {
	for _, f := range benchFills {
		b.Run(fmt.Sprintf("%s/2048", f.name), func(b *testing.B) {
			env, v, _ := benchVolume(b, f.step)
			benchRange(b, func(p *sim.Proc) ([][]byte, error) { return v.ReadRange(p, 0, 2048) }, env)
		})
	}
}

func BenchmarkSnapshotReadRange(b *testing.B) {
	for _, f := range benchFills {
		b.Run(fmt.Sprintf("%s/2048", f.name), func(b *testing.B) {
			env, _, s := benchVolume(b, f.step)
			benchRange(b, func(p *sim.Proc) ([][]byte, error) { return s.ReadRange(p, 0, 2048) }, env)
		})
	}
}
