package storage

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// Record is one update log entry in a journal volume: which block of which
// volume was written, the data, and where the write fell in the journal's
// ack order (Seq) and the array-wide ack order (GlobalSeq). Records written
// through a sharded consistency-group journal additionally carry the group
// Epoch open at ack time — the cross-shard ordering barrier the multi-lane
// drain commits on. Plain journals leave Epoch zero.
type Record struct {
	Seq       int64
	GlobalSeq int64
	Epoch     int64
	Volume    VolumeID
	Block     int64
	Data      []byte
	AckedAt   time.Duration // main-site ack time, used for RPO measurement
}

// SizeBytes returns the wire size of the record: payload plus a fixed
// header, used by the replication engine to charge link bandwidth.
func (r Record) SizeBytes() int { return len(r.Data) + recordHeaderBytes }

const recordHeaderBytes = 64

// Journal is an update-log volume. Volumes attached to the same journal form
// a consistency group: the journal's Seq numbers define one total order over
// all their writes, and the backup site applies records strictly in that
// order.
type Journal struct {
	env      *sim.Env
	array    *Array
	id       string
	members  []VolumeID
	pending  []Record
	nextSeq  int64
	ackSeq   int64 // scoped ack order (isolated mode, ungrouped journals)
	appended int64
	drained  int64
	notEmpty *sim.Event

	// capacityBytes bounds the backlog (0 = unlimited). When an append
	// would exceed it, the journal overflows: the pair suspends (writes
	// stop journaling), the member volumes start change tracking, and the
	// target stays frozen at a consistent prefix until a resync.
	capacityBytes int
	overflowed    bool
	overflows     int64

	// group is non-nil when this journal is one shard of a sharded
	// consistency-group journal: appends are stamped with the group epoch,
	// and an overflow fails the whole group closed, not just this shard.
	group *ShardedJournal
}

func newJournal(env *sim.Env, a *Array, id string, capacityBytes int) *Journal {
	return &Journal{env: env, array: a, id: id, capacityBytes: capacityBytes, notEmpty: env.NewEvent()}
}

// ID returns the journal identifier.
func (j *Journal) ID() string { return j.id }

// Members returns the volume IDs attached to the journal (the consistency
// group membership), in attach order.
func (j *Journal) Members() []VolumeID {
	out := make([]VolumeID, len(j.members))
	copy(out, j.members)
	return out
}

// Overflowed reports whether the journal has overflowed (pair suspended).
func (j *Journal) Overflowed() bool { return j.overflowed }

// Overflows returns how many times the journal has overflowed.
func (j *Journal) Overflows() int64 { return j.overflows }

// CapacityBytes returns the configured capacity (0 = unlimited).
func (j *Journal) CapacityBytes() int { return j.capacityBytes }

// SetCapacityBytes re-declares the journal capacity at runtime (0 =
// unlimited) — the management-API knob a capacity squeeze turns. If the
// pending backlog already exceeds the new bound the journal overflows
// immediately: capacity is a promise about the backlog, so shrinking it
// under an oversized backlog must fail closed rather than leave a journal
// silently over its declared bound.
func (j *Journal) SetCapacityBytes(n int) {
	j.capacityBytes = n
	if n > 0 && !j.overflowed && j.PendingBytes() > n {
		j.overflow()
	}
}

// ClearOverflow re-enables journaling after a resync has reconciled the
// target. The replication engine calls it; see replication.Group.Resync.
func (j *Journal) ClearOverflow() {
	j.overflowed = false
	for _, id := range j.members {
		if v, ok := j.array.volumes[id]; ok {
			v.StopChangeTracking()
		}
	}
}

// overflow suspends the pair: journaling stops and member volumes begin
// change tracking so a later resync can copy exactly the delta. A shard of a
// sharded group escalates to the whole group — a partially-journaling group
// could not replay a consistent cross-shard cut, so it fails closed.
func (j *Journal) overflow() {
	if j.group != nil {
		j.group.overflow()
		return
	}
	j.overflowLocal()
}

func (j *Journal) overflowLocal() {
	j.overflowed = true
	j.overflows++
	for _, id := range j.members {
		if v, ok := j.array.volumes[id]; ok {
			v.StartChangeTracking()
		}
	}
}

// append adds a record in ack order and returns its sequence number, waking
// a drain blocked on NotEmpty.
func (j *Journal) append(vol VolumeID, block int64, data []byte, globalSeq int64, now time.Duration) int64 {
	j.nextSeq++
	var epoch int64
	if j.group != nil {
		epoch = j.group.epoch
	}
	j.pending = append(j.pending, Record{
		Seq:       j.nextSeq,
		GlobalSeq: globalSeq,
		Epoch:     epoch,
		Volume:    vol,
		Block:     block,
		Data:      data,
		AckedAt:   now,
	})
	j.appended++
	j.notEmpty.Trigger()
	return j.nextSeq
}

// nextAckSeq stamps one member write in the journal's scoped ack order
// (Config.IsolatedVolumes): group-wide for a shard of a sharded journal —
// cross-shard merges rely on one ascending order per group — else local to
// this journal.
func (j *Journal) nextAckSeq() int64 {
	if j.group != nil {
		j.group.ackSeq++
		return j.group.ackSeq
	}
	j.ackSeq++
	return j.ackSeq
}

// Pending returns the number of records awaiting drain (the backlog).
func (j *Journal) Pending() int { return len(j.pending) }

// PendingBytes returns the wire size of the backlog.
func (j *Journal) PendingBytes() int {
	var n int
	for _, r := range j.pending {
		n += r.SizeBytes()
	}
	return n
}

// OldestPendingAck returns the ack time of the oldest undrained record and
// whether one exists; the replication engine derives RPO from it.
func (j *Journal) OldestPendingAck() (time.Duration, bool) {
	if len(j.pending) == 0 {
		return 0, false
	}
	return j.pending[0].AckedAt, true
}

// OldestPendingEpoch returns the epoch of the oldest undrained record and
// whether one exists. Epochs in a journal are non-decreasing, so the
// multi-lane drain reads this as "every record of epochs < e is drained".
func (j *Journal) OldestPendingEpoch() (int64, bool) {
	if len(j.pending) == 0 {
		return 0, false
	}
	return j.pending[0].Epoch, true
}

// PendingRecords returns a copy of the undrained records in sequence
// order. Failback reads them to learn which source blocks diverged (they
// carry updates the backup never received).
func (j *Journal) PendingRecords() []Record {
	out := make([]Record, len(j.pending))
	copy(out, j.pending)
	return out
}

// Appended returns the lifetime count of records written to the journal.
func (j *Journal) Appended() int64 { return j.appended }

// Drained returns the lifetime count of records taken by Take.
func (j *Journal) Drained() int64 { return j.drained }

// NotEmpty returns an event that triggers when the journal next becomes
// non-empty (or immediately if it already is). Replication drains use it
// together with sim.Proc.WaitAny to block on "records or stop".
func (j *Journal) NotEmpty() *sim.Event {
	if len(j.pending) > 0 {
		if !j.notEmpty.Triggered() {
			j.notEmpty.Trigger()
		}
		return j.notEmpty
	}
	if j.notEmpty.Triggered() {
		j.notEmpty = j.env.NewEvent()
	}
	return j.notEmpty
}

// TryTake removes and returns up to max pending records without blocking;
// it returns nil when the journal is empty.
func (j *Journal) TryTake(max int) []Record {
	if len(j.pending) == 0 {
		return nil
	}
	return j.takeReady(max)
}

// TryTakeInto is TryTake reusing buf's backing storage for the returned
// batch. The replication drain calls it in a loop with one scratch buffer
// so steady-state draining allocates nothing; callers must be done with the
// previous batch before taking the next one into the same buffer.
func (j *Journal) TryTakeInto(buf []Record, max int) []Record {
	if len(j.pending) == 0 {
		return nil
	}
	return j.takeReadyInto(buf[:0], max)
}

// Take removes and returns up to max pending records in sequence order,
// blocking the process until at least one record is available.
func (j *Journal) Take(p *sim.Proc, max int) []Record {
	for len(j.pending) == 0 {
		if j.notEmpty.Triggered() {
			j.notEmpty = j.env.NewEvent()
		}
		p.Wait(j.notEmpty)
	}
	return j.takeReady(max)
}

// TakeTimeout is Take with a deadline; it returns nil when the timeout
// expires with the journal still empty.
func (j *Journal) TakeTimeout(p *sim.Proc, max int, d time.Duration) []Record {
	deadline := p.Now() + d
	for len(j.pending) == 0 {
		remain := deadline - p.Now()
		if remain <= 0 {
			return nil
		}
		if j.notEmpty.Triggered() {
			j.notEmpty = j.env.NewEvent()
		}
		if !p.WaitTimeout(j.notEmpty, remain) && len(j.pending) == 0 {
			return nil
		}
	}
	return j.takeReady(max)
}

func (j *Journal) takeReady(max int) []Record { return j.takeReadyInto(nil, max) }

// pendingBytesOf returns the wire size of one volume's share of the
// backlog (the reshard capacity check sums these per destination shard).
func (j *Journal) pendingBytesOf(vol VolumeID) int {
	var n int
	for _, r := range j.pending {
		if r.Volume == vol {
			n += r.SizeBytes()
		}
	}
	return n
}

// takeVolume extracts every pending record of one volume, preserving the
// relative order of both the extracted and the remaining records. The
// sharded-journal reshard uses it to migrate a re-placed volume's backlog
// onto its new shard; counters are untouched (the records were appended
// once and will still be drained once, just elsewhere).
func (j *Journal) takeVolume(vol VolumeID) []Record {
	var out []Record
	kept := j.pending[:0]
	for _, r := range j.pending {
		if r.Volume == vol {
			out = append(out, r)
		} else {
			kept = append(kept, r)
		}
	}
	for i := len(kept); i < len(j.pending); i++ {
		j.pending[i] = Record{}
	}
	j.pending = kept
	return out
}

// mergeIn splices records into the pending backlog by GlobalSeq — the
// array-wide ack order. Both the backlog and recs are GlobalSeq-ascending
// (append order is ack order), so the merge keeps the result ascending,
// which in turn keeps epochs non-decreasing: the invariant
// OldestPendingEpoch readers (the multi-lane drain's barrier math) rely on.
func (j *Journal) mergeIn(recs []Record) {
	if len(recs) == 0 {
		return
	}
	merged := make([]Record, 0, len(j.pending)+len(recs))
	a, b := j.pending, recs
	for len(a) > 0 && len(b) > 0 {
		if a[0].GlobalSeq <= b[0].GlobalSeq {
			merged = append(merged, a[0])
			a = a[1:]
		} else {
			merged = append(merged, b[0])
			b = b[1:]
		}
	}
	merged = append(merged, a...)
	merged = append(merged, b...)
	j.pending = merged
	j.notEmpty.Trigger()
}

func (j *Journal) takeReadyInto(buf []Record, max int) []Record {
	if max <= 0 || max > len(j.pending) {
		max = len(j.pending)
	}
	buf = append(buf, j.pending[:max]...)
	rest := len(j.pending) - max
	copy(j.pending, j.pending[max:])
	for i := rest; i < len(j.pending); i++ {
		j.pending[i] = Record{}
	}
	j.pending = j.pending[:rest]
	j.drained += int64(max)
	return buf
}

func (j *Journal) String() string {
	return fmt.Sprintf("Journal(%s){members=%d pending=%d}", j.id, len(j.members), len(j.pending))
}
