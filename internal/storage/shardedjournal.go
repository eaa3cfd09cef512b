package storage

import (
	"fmt"
	"hash/fnv"

	"repro/internal/sim"
)

// ShardedJournal is a consistency-group journal split across N shard
// journals so the replication engine can drain the group on N independent
// lanes. The pieces of the ordering contract:
//
//   - placement: every volume is pinned to one shard by a stable hash of
//     its ID (ShardFor), so all writes to a volume share one shard and the
//     per-volume write order is a per-shard sequence order;
//   - per-shard sequence: each shard is a real Journal with its own Seq;
//   - group epoch: every record is stamped with the epoch open at ack time.
//     SealEpoch atomically closes the epoch, so "all records with epoch <= E"
//     is an exact prefix of the group's cross-volume ack order. The
//     multi-lane drain commits whole epochs at the target — its cross-shard
//     ordering barrier — which is what keeps consistency cuts correct even
//     though lanes drain concurrently.
//
// Every consistency group is a ShardedJournal: a plain group is one shard
// (one lane, one sequence), whose epoch stays open until a reshard seals it.
type ShardedJournal struct {
	env     *sim.Env
	array   *Array
	id      string
	shards  []*Journal
	byVol   map[VolumeID]int // volume -> shard index
	members []VolumeID       // attach order
	epoch   int64            // current open epoch (starts at 1)
	ackSeq  int64            // group-wide ack order (Config.IsolatedVolumes)

	// capacityPerShard is inherited by shards added in a reshard.
	capacityPerShard int

	// retired holds shard journals dropped by a shrink reshard, kept until
	// their last in-flight records are accounted for and DecommissionRetired
	// releases them back to the array.
	retired []*Journal

	// Reshard counters: lifetime transitions and migrated work. A
	// shard-count-unchanged reconcile must leave all three untouched — the
	// zero-migration invariant E15 verifies.
	reshards     int64
	movedVolumes int64
	movedRecords int64

	overflowed bool
	overflows  int64
}

// ShardFor places a volume on one of shards journal shards. The placement
// is a stable hash (FNV-1a) of the volume ID alone — never attach order or
// map iteration — so identically-configured groups place volumes
// identically, run after run.
func ShardFor(id VolumeID, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(id))
	return int(h.Sum64() % uint64(shards))
}

// shardJournalID names one shard's backing journal volume.
func shardJournalID(id string, shard int) string { return fmt.Sprintf("%s#s%d", id, shard) }

// CreateShardedConsistencyGroup provisions a consistency group whose
// journal is split across shards unbounded shard journals and attaches
// every listed volume to its hash-placed shard.
func (a *Array) CreateShardedConsistencyGroup(id string, vols []VolumeID, shards int) (*ShardedJournal, error) {
	return a.CreateShardedConsistencyGroupSized(id, vols, shards, 0)
}

// CreateShardedConsistencyGroupSized is CreateShardedConsistencyGroup with
// a per-shard capacity in bytes (0 = unlimited). When any shard's backlog
// would exceed its capacity the WHOLE group overflows — all shards suspend
// and every member volume starts change tracking — because a group with
// some shards journaling and some not could never replay a consistent
// cross-shard cut.
func (a *Array) CreateShardedConsistencyGroupSized(id string, vols []VolumeID, shards int, capacityPerShard int) (*ShardedJournal, error) {
	if shards < 1 {
		return nil, fmt.Errorf("storage: sharded journal %s: shards must be >= 1", id)
	}
	if _, ok := a.sharded[id]; ok {
		return nil, fmt.Errorf("%w: %s", ErrJournalExists, id)
	}
	for k := 0; k < shards; k++ {
		if _, ok := a.journals[shardJournalID(id, k)]; ok {
			return nil, fmt.Errorf("%w: %s", ErrJournalExists, shardJournalID(id, k))
		}
	}
	sj := &ShardedJournal{
		env:              a.env,
		array:            a,
		id:               id,
		byVol:            make(map[VolumeID]int, len(vols)),
		epoch:            1,
		capacityPerShard: capacityPerShard,
	}
	for k := 0; k < shards; k++ {
		j := newJournal(sj, shardJournalID(id, k), capacityPerShard)
		a.journals[j.id] = j
		sj.shards = append(sj.shards, j)
	}
	rollback := func() {
		for _, v := range sj.members {
			_ = a.detachJournal(v)
		}
		for _, j := range sj.shards {
			delete(a.journals, j.id)
		}
	}
	for _, v := range vols {
		k := ShardFor(v, shards)
		if err := a.attachJournal(v, shardJournalID(id, k)); err != nil {
			rollback()
			return nil, err
		}
		sj.byVol[v] = k
		sj.members = append(sj.members, v)
	}
	a.sharded[id] = sj
	return sj, nil
}

// ShardedJournal returns the sharded journal with the given ID.
func (a *Array) ShardedJournal(id string) (*ShardedJournal, error) {
	sj, ok := a.sharded[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchJournal, id)
	}
	return sj, nil
}

// DeleteShardedJournal detaches every member volume and removes the group's
// shard journals, including shards retired by a reshard but not yet
// decommissioned (a teardown racing a live reshard must not leak them).
func (a *Array) DeleteShardedJournal(id string) error {
	sj, ok := a.sharded[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchJournal, id)
	}
	for _, j := range sj.shards {
		if err := a.deleteJournal(j.id); err != nil {
			return err
		}
	}
	for _, j := range sj.retired {
		if err := a.deleteJournal(j.id); err != nil {
			return err
		}
	}
	sj.retired = nil
	delete(a.sharded, id)
	return nil
}

// ID returns the group journal identifier.
func (sj *ShardedJournal) ID() string { return sj.id }

// Shards returns the shard journals in shard-index order. The replication
// engine runs one drain lane per entry.
func (sj *ShardedJournal) Shards() []*Journal {
	out := make([]*Journal, len(sj.shards))
	copy(out, sj.shards)
	return out
}

// ShardCount returns the number of shards.
func (sj *ShardedJournal) ShardCount() int { return len(sj.shards) }

// Members returns the attached volume IDs (the consistency-group
// membership), in attach order across all shards.
func (sj *ShardedJournal) Members() []VolumeID {
	out := make([]VolumeID, len(sj.members))
	copy(out, sj.members)
	return out
}

// ShardIndexOf returns the shard a member volume is placed on (-1 for
// non-members).
func (sj *ShardedJournal) ShardIndexOf(id VolumeID) int {
	k, ok := sj.byVol[id]
	if !ok {
		return -1
	}
	return k
}

// Epoch returns the current open epoch.
func (sj *ShardedJournal) Epoch() int64 { return sj.epoch }

// SealEpoch atomically closes the open epoch and opens the next, returning
// the sealed epoch. Every record acked before the call carries an epoch <=
// the sealed value and every later ack a greater one, so the sealed set is
// an exact prefix of the group's cross-volume ack order — the barrier the
// multi-lane drain converges on before declaring a consistency cut.
func (sj *ShardedJournal) SealEpoch() int64 {
	sealed := sj.epoch
	sj.epoch++
	return sealed
}

// Pending returns the backlog across all shards.
func (sj *ShardedJournal) Pending() int {
	var n int
	for _, j := range sj.shards {
		n += j.Pending()
	}
	return n
}

// ShardPending returns each shard's backlog record count in shard-index
// order — the telemetry plane's per-shard backlog probe reads this to
// expose lane imbalance that the group-wide Pending() sum hides.
func (sj *ShardedJournal) ShardPending() []int {
	out := make([]int, len(sj.shards))
	for k, j := range sj.shards {
		out[k] = j.Pending()
	}
	return out
}

// PendingBytes returns the wire size of the backlog across all shards.
func (sj *ShardedJournal) PendingBytes() int {
	var n int
	for _, j := range sj.shards {
		n += j.PendingBytes()
	}
	return n
}

// Appended returns the lifetime record count across all shards.
func (sj *ShardedJournal) Appended() int64 {
	var n int64
	for _, j := range sj.shards {
		n += j.Appended()
	}
	return n
}

// Drained returns the lifetime drained count across all shards.
func (sj *ShardedJournal) Drained() int64 {
	var n int64
	for _, j := range sj.shards {
		n += j.Drained()
	}
	return n
}

// Overflowed reports whether the group has overflowed (pair suspended).
func (sj *ShardedJournal) Overflowed() bool { return sj.overflowed }

// Overflows returns how many times the group has overflowed.
func (sj *ShardedJournal) Overflows() int64 { return sj.overflows }

// CapacityPerShard returns the per-shard capacity bound (0 = unlimited).
func (sj *ShardedJournal) CapacityPerShard() int { return sj.capacityPerShard }

// SetCapacityPerShard re-declares every shard's capacity at runtime (0 =
// unlimited); shards created by later reshards inherit it. If any shard's
// backlog already exceeds the new bound the whole group fails closed
// immediately — same all-or-none rule as an append-time overflow.
func (sj *ShardedJournal) SetCapacityPerShard(n int) {
	sj.capacityPerShard = n
	squeeze := false
	for _, j := range sj.shards {
		j.capacityBytes = n
		if n > 0 && j.PendingBytes() > n {
			squeeze = true
		}
	}
	if squeeze && !sj.overflowed {
		sj.overflow()
	}
}

// ClearOverflow re-enables journaling on every shard after a resync.
func (sj *ShardedJournal) ClearOverflow() {
	sj.overflowed = false
	for _, j := range sj.shards {
		j.suspend(false)
	}
}

// overflow fails the whole group closed: every shard suspends and starts
// change tracking on its members, even if only one shard hit its capacity.
func (sj *ShardedJournal) overflow() {
	sj.overflowed = true
	sj.overflows++
	for _, j := range sj.shards {
		if !j.overflowed {
			j.suspend(true)
		}
	}
}

// ReshardStats describes one shard-set transition.
type ReshardStats struct {
	// BarrierEpoch is the group epoch sealed as the migration barrier:
	// every record acked before the reshard carries an epoch <= it, every
	// later ack a greater one. Zero for a no-op (unchanged count).
	BarrierEpoch int64
	// From and To are the shard counts before and after.
	From, To int
	// MovedVolumes counts members whose stable-hash placement changed.
	MovedVolumes int
	// MovedRecords counts pending records migrated onto their volume's new
	// shard.
	MovedRecords int
}

// Reshard transitions the group to newCount shard journals in one atomic
// (zero virtual time) step — the storage half of a live reshard:
//
//   - the open epoch is sealed as the migration barrier, so the old and the
//     new placement are separated by an exact cross-volume cut;
//   - volumes are re-placed by the same stable hash over the new count;
//     only members whose assignment changes migrate, and their pending
//     (undrained) records move with them, merged into the destination
//     shard's backlog by GlobalSeq — the array-wide ack order — which keeps
//     every shard's backlog epoch-monotone for the drain's barrier math;
//   - a grow creates the added shard journals (inheriting the group's
//     per-shard capacity); a shrink retires the dropped ones, which are
//     empty of backlog after migration and wait in Retired() until the
//     replication engine confirms their lanes idle and decommissions them.
//
// Resharding to the current count is a structural no-op: no epoch is
// sealed, nothing migrates, no counter moves. An overflowed group refuses
// to reshard — resync first, a suspended pair has no live drain to migrate
// under.
func (sj *ShardedJournal) Reshard(newCount int) (ReshardStats, error) {
	cur := len(sj.shards)
	stats := ReshardStats{From: cur, To: newCount}
	if newCount < 1 {
		return stats, fmt.Errorf("storage: sharded journal %s: reshard to %d shards", sj.id, newCount)
	}
	if newCount == cur {
		return stats, nil
	}
	if sj.overflowed {
		return stats, fmt.Errorf("storage: sharded journal %s: cannot reshard while overflowed (resync first)", sj.id)
	}
	a := sj.array
	for k := cur; k < newCount; k++ {
		if _, ok := a.journals[shardJournalID(sj.id, k)]; ok {
			return stats, fmt.Errorf("%w: %s", ErrJournalExists, shardJournalID(sj.id, k))
		}
	}
	if sj.capacityPerShard > 0 {
		// Sized shards model finite journal regions: a migration that would
		// land more backlog on a destination than its region holds is
		// refused BEFORE any side effects — the fail-closed overflow
		// invariant must not be bypassable by re-placement. The caller
		// (controller backoff) retries once the drain has made room.
		dest := make([]int, newCount)
		for k := 0; k < newCount && k < cur; k++ {
			dest[k] = sj.shards[k].PendingBytes()
		}
		for _, v := range sj.members {
			oldIdx, newIdx := sj.byVol[v], ShardFor(v, newCount)
			if oldIdx == newIdx {
				continue
			}
			moved := sj.shards[oldIdx].pendingBytesOf(v)
			if oldIdx < newCount {
				dest[oldIdx] -= moved
			}
			dest[newIdx] += moved
		}
		for k, b := range dest {
			if b > sj.capacityPerShard {
				return stats, fmt.Errorf("storage: sharded journal %s: reshard to %d would put %dB on shard %d (capacity %dB); drain first",
					sj.id, newCount, b, k, sj.capacityPerShard)
			}
		}
	}
	stats.BarrierEpoch = sj.SealEpoch()
	for k := cur; k < newCount; k++ {
		j := newJournal(sj, shardJournalID(sj.id, k), sj.capacityPerShard)
		a.journals[j.id] = j
		sj.shards = append(sj.shards, j)
	}
	for _, v := range sj.members {
		oldIdx := sj.byVol[v]
		newIdx := ShardFor(v, newCount)
		if oldIdx == newIdx {
			continue
		}
		moved := sj.shards[oldIdx].takeVolume(v)
		if err := a.detachJournal(v); err != nil {
			return stats, err
		}
		if err := a.attachJournal(v, sj.shards[newIdx].id); err != nil {
			return stats, err
		}
		sj.shards[newIdx].mergeIn(moved)
		sj.byVol[v] = newIdx
		stats.MovedVolumes++
		stats.MovedRecords += len(moved)
	}
	if newCount < cur {
		sj.retired = append(sj.retired, sj.shards[newCount:]...)
		sj.shards = sj.shards[:newCount]
	}
	sj.reshards++
	sj.movedVolumes += int64(stats.MovedVolumes)
	sj.movedRecords += int64(stats.MovedRecords)
	return stats, nil
}

// Retired returns the shard journals dropped by shrink reshards and not yet
// decommissioned.
func (sj *ShardedJournal) Retired() []*Journal {
	out := make([]*Journal, len(sj.retired))
	copy(out, sj.retired)
	return out
}

// DecommissionRetired releases every retired shard journal that is fully
// drained (no backlog, no members) back to the array, returning how many
// were removed. The replication engine calls it once a retiring lane's last
// staged records are committed; leftover backlog keeps a shard parked here.
func (sj *ShardedJournal) DecommissionRetired() int {
	kept := sj.retired[:0]
	for _, j := range sj.retired {
		if j.Pending() == 0 && len(j.members) == 0 {
			delete(sj.array.journals, j.id)
		} else {
			kept = append(kept, j)
		}
	}
	n := len(sj.retired) - len(kept)
	for i := len(kept); i < len(sj.retired); i++ {
		sj.retired[i] = nil
	}
	sj.retired = kept
	return n
}

// Reshards returns the lifetime count of shard-set transitions.
func (sj *ShardedJournal) Reshards() int64 { return sj.reshards }

// MovedVolumes returns the lifetime count of migrated member placements.
func (sj *ShardedJournal) MovedVolumes() int64 { return sj.movedVolumes }

// MovedRecords returns the lifetime count of migrated pending records.
func (sj *ShardedJournal) MovedRecords() int64 { return sj.movedRecords }

func (sj *ShardedJournal) String() string {
	return fmt.Sprintf("ShardedJournal(%s){shards=%d members=%d pending=%d epoch=%d}",
		sj.id, len(sj.shards), len(sj.members), sj.Pending(), sj.epoch)
}
