package storage

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"time"

	"repro/internal/sim"
)

// Volume is a block-addressed logical device. Blocks not yet written read as
// zeroes. Writes are acknowledged only after the controller has stored the
// data and, when the volume belongs to a journal (replication is enabled),
// appended the update log — this is the ack-order guarantee §I relies on.
//
// Stored block buffers are immutable. Every path that changes a block
// (commit, Poke, Apply, restore, clone) installs a new buffer and never
// writes into an installed one, so journal records, snapshot COW saves and
// ReadRange results share them by reference instead of copying.
type Volume struct {
	id         VolumeID
	array      *Array
	sizeBlocks int64
	blocks     map[int64][]byte
	journal    *Journal
	snapshots  []*Snapshot
	readOnly   bool

	// queue is the volume's own service queue (Config.IsolatedVolumes);
	// nil when the shared array controller serializes I/O.
	queue *sim.Resource
	// localSeq numbers acks of an unjournaled volume in isolated mode.
	localSeq int64

	writes, reads int64
	cowCopies     int64 // blocks preserved for snapshots (write amplification)

	// changed records blocks written since StartChangeTracking — the
	// delta-resync bitmap real arrays keep for failback. nil = off.
	changed map[int64]bool
}

// StartChangeTracking begins recording written block indexes (resets any
// previous record). Replication failover turns this on for its targets so
// failback can resynchronize only the delta.
func (v *Volume) StartChangeTracking() { v.changed = make(map[int64]bool) }

// StopChangeTracking discards the change record.
func (v *Volume) StopChangeTracking() { v.changed = nil }

// TrackingChanges reports whether the volume is currently change tracking —
// the fail-closed invariant checkers use it to assert that every member of
// an overflowed journal is accumulating its resync delta.
func (v *Volume) TrackingChanges() bool { return v.changed != nil }

// ChangedBlocks returns the blocks written since StartChangeTracking, in
// ascending order.
func (v *Volume) ChangedBlocks() []int64 {
	out := slices.AppendSeq(make([]int64, 0, len(v.changed)), maps.Keys(v.changed))
	slices.Sort(out)
	return out
}

func (v *Volume) noteChange(block int64) {
	if v.changed != nil {
		v.changed[block] = true
	}
}

// ID returns the volume's identifier.
func (v *Volume) ID() VolumeID { return v.id }

// SizeBlocks returns the provisioned size in blocks.
func (v *Volume) SizeBlocks() int64 { return v.sizeBlocks }

// BlockSize returns the array's block size in bytes.
func (v *Volume) BlockSize() int { return v.array.cfg.BlockSize }

// Journal returns the attached journal, or nil when replication is off.
func (v *Volume) Journal() *Journal { return v.journal }

// SetReadOnly toggles write protection (used on backup-site volumes while
// they are replication targets).
func (v *Volume) SetReadOnly(ro bool) { v.readOnly = ro }

// ReadOnly reports whether writes are rejected.
func (v *Volume) ReadOnly() bool { return v.readOnly }

// Writes returns the number of block writes served.
func (v *Volume) Writes() int64 { return v.writes }

// Reads returns the number of block reads served.
func (v *Volume) Reads() int64 { return v.reads }

// COWCopies returns how many original blocks were preserved for snapshots —
// the snapshot write amplification measured in experiment E3.
func (v *Volume) COWCopies() int64 { return v.cowCopies }

// Ack describes a completed write as seen by the host.
type Ack struct {
	Volume    VolumeID
	Block     int64
	GlobalSeq int64         // array-wide ack order
	GroupSeq  int64         // journal (consistency-group) order; 0 if unjournaled
	AckedAt   time.Duration // virtual time of the ack
}

// Write stores one block, consuming simulated controller and media time, and
// returns the ack. Data length must equal the array block size.
func (v *Volume) Write(p *sim.Proc, block int64, data []byte) (Ack, error) {
	if v.readOnly {
		return Ack{}, fmt.Errorf("%w: %s", ErrReadOnly, v.id)
	}
	if err := v.checkWrite(block, data); err != nil {
		return Ack{}, err
	}
	// One fused sleep: media plus (when journaled) journal staging. The ack
	// time is identical to charging the two legs separately; fusing them
	// halves the scheduler steps per journaled write.
	lat := v.array.cfg.WriteLatency
	if v.journal != nil {
		lat += v.array.cfg.JournalLatency
	}
	v.acquireService(p)
	p.Sleep(lat)
	v.releaseService()
	return v.commit(p.Now(), block, data), nil
}

// acquireService claims the volume's service queue: its own queue in
// isolated mode, otherwise the array's shared controller.
func (v *Volume) acquireService(p *sim.Proc) {
	if v.queue != nil {
		v.queue.Acquire(p)
		return
	}
	v.array.controller.Acquire(p)
}

func (v *Volume) releaseService() {
	if v.queue != nil {
		v.queue.Release()
		return
	}
	v.array.controller.Release()
}

// ackSeq stamps one write ack: array-wide by default, scoped to the
// volume's consistency group (or the volume itself) in isolated mode.
func (v *Volume) ackSeq() int64 {
	if !v.array.cfg.IsolatedVolumes {
		return v.array.nextGlobalSeq()
	}
	if v.journal != nil {
		return v.journal.nextAckSeq()
	}
	v.localSeq++
	return v.localSeq
}

// commit applies a write without consuming time. The caller has already
// paid the service time.
func (v *Volume) commit(now time.Duration, block int64, data []byte) Ack {
	buf := v.store(block, data)
	v.countWrite()
	ack := Ack{
		Volume:    v.id,
		Block:     block,
		GlobalSeq: v.ackSeq(),
		AckedAt:   now,
	}
	if v.journal != nil {
		switch {
		case v.journal.overflowed:
			// Pair suspended: the write is not journaled; change tracking
			// (started at overflow) records it for the eventual resync.
		case v.journal.capacityBytes > 0 &&
			v.journal.PendingBytes()+len(buf)+recordHeaderBytes > v.journal.capacityBytes:
			v.journal.overflow()
			v.noteChange(block) // tracking started just now; cover this write
		default:
			ack.GroupSeq = v.journal.append(v.id, block, buf, ack.GlobalSeq, now)
		}
	}
	return ack
}

// checkWrite validates a block index and a block-sized payload.
func (v *Volume) checkWrite(block int64, data []byte) error {
	if block < 0 || block >= v.sizeBlocks {
		return fmt.Errorf("%w: %s[%d]", ErrOutOfRange, v.id, block)
	}
	if len(data) != v.array.cfg.BlockSize {
		return fmt.Errorf("%w: got %d want %d", ErrBadBlockSize, len(data), v.array.cfg.BlockSize)
	}
	return nil
}

// store installs a private copy of data as the block's new buffer, after
// snapshots have preserved the old one, and returns the installed buffer.
func (v *Volume) store(block int64, data []byte) []byte {
	v.preserveForSnapshots(block)
	buf := bytes.Clone(data)
	v.blocks[block] = buf
	v.noteChange(block)
	return buf
}

// countWrite charges one block write to the volume and array counters.
func (v *Volume) countWrite() {
	v.writes++
	v.array.writeOps++
	v.array.bytesWritten += int64(v.array.cfg.BlockSize)
}

// preserveForSnapshots saves the current block buffer, by reference, into
// every snapshot that has not yet saved it (copy-on-write).
func (v *Volume) preserveForSnapshots(block int64) {
	for _, s := range v.snapshots {
		if _, saved := s.saved[block]; saved {
			continue
		}
		s.saved[block] = v.blocks[block] // nil means "was unwritten (zeroes)"
		v.cowCopies++
	}
}

// block returns the stored buffer (shared, read-only), or the array's zero
// block when the block was never written.
func (v *Volume) block(b int64) []byte {
	if cur, ok := v.blocks[b]; ok {
		return cur
	}
	return v.array.zero
}

// Read returns a caller-owned copy of one block, consuming simulated read
// service time. Unwritten blocks read as zeroes.
func (v *Volume) Read(p *sim.Proc, block int64) ([]byte, error) {
	if block < 0 || block >= v.sizeBlocks {
		return nil, fmt.Errorf("%w: %s[%d]", ErrOutOfRange, v.id, block)
	}
	v.acquireService(p)
	p.Sleep(v.array.cfg.ReadLatency)
	v.releaseService()
	v.reads++
	v.array.readOps++
	return bytes.Clone(v.block(block)), nil
}

// ReadRange returns count consecutive blocks starting at start — one fused
// sequential scan: the service queue is held once for the whole range and
// the service time of count reads is charged in a single step. The
// completion time matches count back-to-back Reads on an uncontended queue
// while costing one scheduler step instead of count.
//
// The result is shared, read-only: never write into the result. Its
// entries are the stored buffers themselves (the array's zero block for
// unwritten blocks); copy any block before modifying it.
func (v *Volume) ReadRange(p *sim.Proc, start int64, count int) ([][]byte, error) {
	if count < 0 || start < 0 || start+int64(count) > v.sizeBlocks {
		return nil, fmt.Errorf("%w: %s[%d..%d)", ErrOutOfRange, v.id, start, start+int64(count))
	}
	v.acquireService(p)
	p.Sleep(time.Duration(count) * v.array.cfg.ReadLatency)
	v.releaseService()
	v.reads += int64(count)
	v.array.readOps += int64(count)
	out := make([][]byte, count)
	for i := range out {
		out[i] = v.block(start + int64(i))
	}
	return out, nil
}

// Peek returns a caller-owned copy of the block without consuming simulated
// time. It is the verification back door used by the consistency checker;
// production code paths must use Read.
func (v *Volume) Peek(block int64) []byte { return bytes.Clone(v.block(block)) }

// Poke installs block contents without consuming time or journaling; the
// replication initial-copy path and test fixtures use it. Snapshots still
// observe the overwrite (COW fires) so backup-site snapshots stay correct.
func (v *Volume) Poke(block int64, data []byte) error {
	if err := v.checkWrite(block, data); err != nil {
		return err
	}
	v.store(block, data)
	return nil
}

// InstallDelta stores a block as part of a replication delta-set commit.
// No service time passes here — the engine charges the whole set's apply
// time up front via Array.ApplyDeltaSet — but write accounting matches the
// Apply path so backup-array counters see the traffic.
func (v *Volume) InstallDelta(block int64, data []byte) error {
	if err := v.Poke(block, data); err != nil {
		return err
	}
	v.countWrite()
	return nil
}

// Apply is the replication-target write path: it stores the block after the
// media service time but never journals (targets do not re-replicate) and
// ignores read-only protection (the replication engine owns the target).
func (v *Volume) Apply(p *sim.Proc, block int64, data []byte) error {
	if err := v.checkWrite(block, data); err != nil {
		return err
	}
	v.acquireService(p)
	p.Sleep(v.array.cfg.WriteLatency)
	v.releaseService()
	v.store(block, data)
	v.countWrite()
	return nil
}

// WrittenBlocks returns the indexes of blocks that have been written, in
// ascending order (verification helper).
func (v *Volume) WrittenBlocks() []int64 {
	out := slices.AppendSeq(make([]int64, 0, len(v.blocks)), maps.Keys(v.blocks))
	slices.Sort(out)
	return out
}

func (v *Volume) String() string {
	return fmt.Sprintf("Volume(%s/%s){%d blocks, %d written}", v.array.name, v.id, v.sizeBlocks, len(v.blocks))
}
