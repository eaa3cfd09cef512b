package replication

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// ShardedGroup replicates one consistency-group journal to target volumes
// asynchronously. It is the only ADC engine: the journal is split into
// shards, and one drain lane per shard moves records over its own fabric
// path, so a tenant's drain throughput scales with shard count. A plain
// consistency group is simply one shard.
//
// Lanes only take, transfer and stage; one commit process per group
// applies. With one lane it needs no epoch: a lone lane's staged list is
// always a prefix of its shard's ack order, so the commit process queues for
// a backup controller slot and, once granted, applies everything staged by
// then and installs it in sequence order. The backup image sits on an exact
// ack-order prefix, and the lane keeps transferring while the commit waits.
//
// Past one lane (from construction, or from the first reshard past one
// lane, for the rest of the group's life) the commit process is an epoch
// coordinator enforcing the cross-shard ordering barrier:
//
//  1. every record carries the group epoch open at ack time; sealing an
//     epoch is atomic, so "all records with epoch <= E" is an exact prefix
//     of the group's cross-volume ack order;
//  2. lanes transfer records lane-locally and STAGE them at the target —
//     staged records are not yet part of the backup image;
//  3. the commit process seals epochs whenever there is backlog and, once
//     every lane has staged its share of the sealed epoch (the barrier),
//     commits the whole epoch: the target applies the delta set and exposes
//     it atomically. The backup image therefore always sits exactly on an
//     epoch boundary = a consistent cross-volume cut, no matter when a
//     disaster splits the pair.
//
// Within an epoch, cross-shard apply order is relaxed (that is the point —
// lanes run concurrently); per volume, order is exact because placement
// pins each volume to one shard.
type ShardedGroup struct {
	env     *sim.Env
	name    string
	journal *storage.ShardedJournal
	target  *storage.Array
	mapping map[storage.VolumeID]storage.VolumeID
	cfg     Config

	lanes    []*drainLane // active lanes, index-aligned with journal shards
	retiring []*drainLane // lanes of retired shards, draining their last staged records

	stopEv       *sim.Event
	stopped      bool
	failedOver   bool
	started      bool
	coordinated  bool         // commits go by epoch (past one lane; never cleared)
	progress     *sim.Event   // pulsed by lanes as they stage; the commit process waits on it
	committed    *sim.Event   // pulsed per commit; CatchUp waits on it
	reconfigured *sim.Event   // pulsed by Reshard; wakes the commit process onto the new lane set
	waitSet      []*sim.Event // the commit process's idle and barrier wait set, reused

	// Reshard state. While resharding is set, one volume's staged records
	// can be split across two lanes (its old shard's lane staged pre-barrier
	// records, its new shard's lane stages post-barrier ones), so epoch
	// commits apply in global ack (GlobalSeq) order instead of lane order.
	// The window closes — and retiring lanes are reaped — once every record
	// of epochs <= the migration barrier is committed at the target.
	resharding       bool
	migrationBarrier int64
	reshardSettled   *sim.Event // re-armed per reshard; AwaitReshard waits on it
	reshards         int64

	committedEpoch int64
	epochCommits   int64
	directApplied  int // leading ApplyLog records applied by one-lane commits
	appliedRecords int64
	appliedBytes   int64
	applyLog       []storage.Record // applied at target, for verification
	lost           []storage.Record // abandoned in flight by Stop

	// Telemetry (set by Instrument; nil handles no-op when disabled).
	tel          *telemetry.Registry
	tenant       string
	epochLatency *telemetry.Histogram
	reshardSpan  telemetry.Span
	laneGen      map[int]int // lane index -> registrations (probe-key generations)
}

// drainLane is one shard's drain state. Each lane owns its batch scratch
// and staging buffer — nothing is shared across lanes, so concurrent lanes
// never alias each other's records.
type drainLane struct {
	idx     int
	journal *storage.Journal
	path    fabric.Path

	batch   []storage.Record // drain scratch, reused across batches
	staged  []storage.Record // transferred, awaiting a commit
	waitSet [3]*sim.Event    // the idle wait set, reused

	inflight      int           // records taken but not yet staged
	inflightEpoch int64         // epoch of the first in-flight record
	inflightAck   time.Duration // ack time of the first in-flight record

	// retire is triggered by the commit process once a retiring lane has
	// nothing left to drain, stage, or commit; the lane process exits on it.
	retire *sim.Event
}

// NewShardedGroup wires a sharded source journal to target volumes. paths
// carries one fabric path per shard (lane k drains shard k over paths[k]).
// mapping translates each source volume ID to its backup-site twin; every
// journal member must be mapped and every mapped target must exist on the
// target array.
func NewShardedGroup(env *sim.Env, name string, journal *storage.ShardedJournal, target *storage.Array,
	mapping map[storage.VolumeID]storage.VolumeID, paths []fabric.Path, cfg Config) (*ShardedGroup, error) {
	if len(paths) != journal.ShardCount() {
		return nil, fmt.Errorf("replication: %s: %d paths for %d shards", name, len(paths), journal.ShardCount())
	}
	for _, src := range journal.Members() {
		dst, ok := mapping[src]
		if !ok {
			return nil, fmt.Errorf("replication: journal member %s has no target mapping", src)
		}
		if _, err := target.Volume(dst); err != nil {
			return nil, fmt.Errorf("replication: target for %s: %w", src, err)
		}
	}
	m := make(map[storage.VolumeID]storage.VolumeID, len(mapping))
	for k, v := range mapping {
		m[k] = v
	}
	g := &ShardedGroup{
		env:            env,
		name:           name,
		journal:        journal,
		target:         target,
		mapping:        m,
		cfg:            cfg.withDefaults(),
		coordinated:    journal.ShardCount() > 1,
		stopEv:         env.NewEvent(),
		progress:       env.NewEvent(),
		committed:      env.NewEvent(),
		reconfigured:   env.NewEvent(),
		reshardSettled: env.NewEvent(),
	}
	for i, shard := range journal.Shards() {
		g.lanes = append(g.lanes, g.newLane(i, shard, paths[i]))
	}
	return g, nil
}

func (g *ShardedGroup) newLane(idx int, shard *storage.Journal, path fabric.Path) *drainLane {
	l := &drainLane{idx: idx, journal: shard, path: path, retire: g.env.NewEvent()}
	// Lanes added by a live reshard register their probes here, so their
	// timelines start at the migration instant.
	g.instrumentLane(l)
	return l
}

// Name returns the group name.
func (g *ShardedGroup) Name() string { return g.name }

// Journal returns the source sharded journal being drained.
func (g *ShardedGroup) Journal() *storage.ShardedJournal { return g.journal }

// JournalID returns the group journal's identifier.
func (g *ShardedGroup) JournalID() string { return g.journal.ID() }

// Members returns the consistency group's volumes in attach order.
func (g *ShardedGroup) Members() []storage.VolumeID { return g.journal.Members() }

// Lanes returns the number of active drain lanes (= journal shards);
// retiring lanes mid-reshard are excluded.
func (g *ShardedGroup) Lanes() int { return len(g.lanes) }

// InitialCopy performs the ADC initialization bulk copy (§III-A1): every
// written block of every source volume is transferred — over the volume's
// own lane path — and applied to its target. Writes that land during the
// copy flow through the journal and are applied afterwards by the drain, so
// the target converges to a consistent image. source must be the array
// owning the journal volumes.
func (g *ShardedGroup) InitialCopy(p *sim.Proc, source *storage.Array) error {
	for _, src := range g.journal.Members() {
		sv, tv, err := g.pair(source, src)
		if err != nil {
			return err
		}
		if err := g.bulkCopy(p, src, sv, tv, sv.WrittenBlocks()); err != nil {
			return err
		}
	}
	return nil
}

// pair resolves one member's source volume and its target twin.
func (g *ShardedGroup) pair(source *storage.Array, src storage.VolumeID) (sv, tv *storage.Volume, err error) {
	if sv, err = source.Volume(src); err != nil {
		return nil, nil, err
	}
	tv, err = g.target.Volume(g.mapping[src])
	return sv, tv, err
}

// bulkCopy streams the given blocks of one volume to its target over the
// volume's lane path in BatchMax-block batches: one link transfer and one
// delta-set apply per batch instead of one scheduling event per block. The
// initial copy and resync share it.
func (g *ShardedGroup) bulkCopy(p *sim.Proc, src storage.VolumeID, sv, tv *storage.Volume, blocks []int64) error {
	path := g.lanes[g.journal.ShardIndexOf(src)].path
	for start := 0; start < len(blocks); start += g.cfg.BatchMax {
		chunk := blocks[start:min(start+g.cfg.BatchMax, len(blocks))]
		path.Transfer(p, len(chunk)*(sv.BlockSize()+64))
		g.target.ApplyDeltaSet(p, len(chunk))
		var err error
		p.Do(func() {
			for _, b := range chunk {
				if err = tv.InstallDelta(b, sv.Peek(b)); err != nil {
					return
				}
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Start launches one drain process per lane, then the commit process.
func (g *ShardedGroup) Start() {
	if g.started {
		return
	}
	g.started = true
	for _, l := range g.lanes {
		g.startLane(l)
	}
	g.env.Process("adc-commit:"+g.name, g.commit)
}

func (g *ShardedGroup) startLane(l *drainLane) {
	g.env.Process(fmt.Sprintf("adc-lane:%s:s%d", g.name, l.idx), func(p *sim.Proc) { g.drainLane(p, l) })
}

// Stop halts the lanes and the commit process after their in-flight step.
// Pending journal records stay at the main site — exactly the data a
// disaster would lose (RPO) — and a batch or staged records not yet applied
// are lost at the split.
func (g *ShardedGroup) Stop() {
	if g.stopped {
		return
	}
	g.stopped = true
	g.stopEv.Trigger()
}

// Stopped reports whether Stop was called.
func (g *ShardedGroup) Stopped() bool { return g.stopped }

// drainLane moves one shard's records across the lane's path and stages
// them for the commit process.
func (g *ShardedGroup) drainLane(p *sim.Proc, l *drainLane) {
	for {
		// The batch scratch is reused across iterations; records that
		// outlive the batch (applyLog, staged, lost) are copied out by value.
		recs := l.journal.TryTakeInto(l.batch, g.cfg.BatchMax)
		if recs != nil {
			l.batch = recs
		}
		if recs == nil {
			g.pulseProgress()
			l.waitSet = [3]*sim.Event{l.journal.NotEmpty(), g.stopEv, l.retire}
			switch p.WaitAny(l.waitSet[:]...) {
			case 1:
				return
			case 2:
				return // retired: staged records were committed, shard is empty
			}
			if g.stopped {
				return
			}
			continue
		}
		var batchBytes int
		for _, r := range recs {
			batchBytes += r.SizeBytes()
		}
		l.inflight = len(recs)
		l.inflightEpoch = recs[0].Epoch
		l.inflightAck = recs[0].AckedAt
		l.path.Transfer(p, batchBytes)
		if g.stopped {
			// Split mid-transfer: the batch never reaches a committed
			// epoch — lost, exactly as a disaster leaves it.
			g.lost = append(g.lost, recs...)
			l.inflight = 0
			return
		}
		l.staged = append(l.staged, recs...)
		l.inflight = 0
		g.pulseProgress()
	}
}

// stagedThrough returns the highest epoch the lane has fully staged: no
// pending or in-flight record of that epoch (or older) remains. An idle
// empty lane has staged everything appended so far.
func (g *ShardedGroup) stagedThrough(l *drainLane) int64 {
	through := g.journal.Epoch()
	if e, ok := l.journal.OldestPendingEpoch(); ok && e-1 < through {
		through = e - 1
	}
	if l.inflight > 0 && l.inflightEpoch-1 < through {
		through = l.inflightEpoch - 1
	}
	return through
}

// commitLanes returns every lane that can hold uncommitted records: the
// active set plus lanes retiring after a shrink reshard.
func (g *ShardedGroup) commitLanes() []*drainLane {
	if len(g.retiring) == 0 {
		return g.lanes
	}
	out := make([]*drainLane, 0, len(g.lanes)+len(g.retiring))
	out = append(out, g.lanes...)
	return append(out, g.retiring...)
}

func (g *ShardedGroup) allStagedThrough(epoch int64) bool {
	for _, l := range g.commitLanes() {
		if g.stagedThrough(l) < epoch {
			return false
		}
	}
	return true
}

// commit is the group's commit process. On one lane it commits whatever
// is staged (commitStaged). Past one lane it runs the epoch cycle: seal
// whenever there is backlog, wait for every lane to stage its share of the
// sealed epoch (the barrier), commit the epoch atomically at the target,
// repeat. After a reshard it also settles the migration window and reaps
// retiring lanes once their last staged records are committed.
func (g *ShardedGroup) commit(p *sim.Proc) {
	for !g.stopped {
		g.settleReshard()
		if !g.coordinated {
			if !g.commitStaged(p) {
				return
			}
			continue
		}
		if g.backlogRecords() == 0 {
			evs := g.waitSet[:0]
			for _, l := range g.lanes {
				evs = append(evs, l.journal.NotEmpty())
			}
			g.waitSet = append(evs, g.reconfiguredEv(), g.stopEv)
			if p.WaitAny(g.waitSet...) == len(g.waitSet)-1 {
				return
			}
			continue
		}
		sealed := g.journal.SealEpoch()
		sealedAt := p.Now()
		var sp telemetry.Span
		if g.tel != nil {
			sp = g.tel.StartSpan("epoch", "epoch-drain", g.tenant)
		}
		for !g.allStagedThrough(sealed) {
			g.waitSet = append(g.waitSet[:0], g.progressEv(), g.stopEv)
			if p.WaitAny(g.waitSet...) == 1 {
				return
			}
			if g.stopped {
				return
			}
		}
		g.commitEpoch(p, sealed)
		sp.End()
		g.epochLatency.Record(p.Now() - sealedAt)
	}
}

// commitStaged makes one one-lane commit. With nothing staged it waits for
// the lane to stage. Otherwise it queues for a backup controller slot and,
// once granted, applies every record staged by then in one delta set and
// installs them in sequence order, so each commit is batch-atomic at a
// split and extends an exact prefix of the shard's ack order. A reshard
// past one lane while the commit queues leaves the staged records to the
// epoch path. It reports false once the group has stopped.
func (g *ShardedGroup) commitStaged(p *sim.Proc) bool {
	l := g.lanes[0]
	if len(l.staged) == 0 {
		g.waitSet = append(g.waitSet[:0], g.progressEv(), g.reconfiguredEv(), g.stopEv)
		return p.WaitAny(g.waitSet...) != 2
	}
	n := g.target.ApplyDeltaSetAtGrant(p, g.stagedAtGrant)
	if n == 0 || g.stopped {
		// A split while queued or mid-apply leaves the records staged:
		// part of UnappliedRecords and the RPO.
		return !g.stopped
	}
	p.Do(func() {
		for _, r := range l.staged[:n] {
			g.install(r)
			g.appliedBytes += int64(len(r.Data))
		}
	})
	l.dropStaged(n)
	g.appliedRecords += int64(n)
	g.directApplied += n
	g.pulseCommitted()
	return true
}

// stagedAtGrant sizes a one-lane commit when its controller slot is
// granted: everything staged by then, or nothing once the group stopped or
// a reshard handed commits to the epoch path.
func (g *ShardedGroup) stagedAtGrant() int {
	if g.stopped || g.coordinated {
		return 0
	}
	return len(g.lanes[0].staged)
}

// dropStaged removes the first n staged records once they are committed.
func (l *drainLane) dropStaged(n int) {
	rest := copy(l.staged, l.staged[n:])
	for i := rest; i < len(l.staged); i++ {
		l.staged[i] = storage.Record{}
	}
	l.staged = l.staged[:rest]
}

// commitEpoch applies every staged record of epochs <= sealed to the target
// and exposes them atomically. The backup array works through the delta set
// with its controller parallelism, then installs the cut in one instant —
// which is why a failover can never observe a half-applied epoch.
//
// In steady state the apply iterates lane by lane: placement pins a volume
// to one shard, so per-volume order is each lane's staged order, and each
// staged list is epoch-monotone (it mirrors the shard backlog's order) —
// the "epoch > sealed" prefix scan is exact. During a reshard window
// NEITHER holds: a migrated volume's records can sit on two lanes, and
// migration can stage sealed-epoch records BEHIND open-epoch ones on a
// surviving lane. So the window's commits scan every staged record (no
// prefix break — a short scan would commit an epoch with holes and break
// the failover prefix) and apply in global ack (GlobalSeq) order.
func (g *ShardedGroup) commitEpoch(p *sim.Proc, sealed int64) {
	lanes := g.commitLanes()
	var count int
	var bytes int64
	for _, l := range lanes {
		for _, r := range l.staged {
			if r.Epoch > sealed {
				if !g.resharding {
					break
				}
				continue
			}
			count++
			bytes += int64(len(r.Data))
		}
	}
	if count == 0 {
		return
	}
	g.target.ApplyDeltaSet(p, count)
	if g.stopped {
		// Split mid-commit: the epoch never becomes visible; its staged
		// records are part of UnappliedRecords.
		return
	}
	if g.resharding {
		merged := make([]storage.Record, 0, count)
		for _, l := range lanes {
			for _, r := range l.staged {
				if r.Epoch <= sealed {
					merged = append(merged, r)
				}
			}
		}
		sort.Slice(merged, func(i, j int) bool { return merged[i].GlobalSeq < merged[j].GlobalSeq })
		p.Do(func() {
			for _, r := range merged {
				g.install(r)
			}
		})
		for _, l := range lanes {
			kept := l.staged[:0]
			for _, r := range l.staged {
				if r.Epoch > sealed {
					kept = append(kept, r)
				}
			}
			for i := len(kept); i < len(l.staged); i++ {
				l.staged[i] = storage.Record{}
			}
			l.staged = kept
		}
	} else {
		for _, l := range lanes {
			n := 0
			p.Do(func() {
				for _, r := range l.staged {
					if r.Epoch > sealed {
						break
					}
					g.install(r)
					n++
				}
			})
			l.dropStaged(n)
		}
	}
	g.appliedRecords += int64(count)
	g.appliedBytes += bytes
	g.committedEpoch = sealed
	g.epochCommits++
	g.pulseCommitted()
}

// install writes one applied record into its target volume.
func (g *ShardedGroup) install(r storage.Record) {
	tv, err := g.target.Volume(g.mapping[r.Volume])
	if err != nil {
		panic(fmt.Sprintf("replication %s: target vanished: %v", g.name, err))
	}
	if err := tv.InstallDelta(r.Block, r.Data); err != nil {
		panic(fmt.Sprintf("replication %s: commit: %v", g.name, err))
	}
	g.applyLog = append(g.applyLog, r)
}

func (g *ShardedGroup) pulseProgress() {
	if !g.progress.Triggered() {
		g.progress.Trigger()
	}
}

func (g *ShardedGroup) progressEv() *sim.Event {
	if g.progress.Triggered() {
		g.progress = g.env.NewEvent()
	}
	return g.progress
}

func (g *ShardedGroup) pulseCommitted() {
	if !g.committed.Triggered() {
		g.committed.Trigger()
	}
}

func (g *ShardedGroup) committedEv() *sim.Event {
	if g.committed.Triggered() {
		g.committed = g.env.NewEvent()
	}
	return g.committed
}

func (g *ShardedGroup) pulseReconfigured() {
	if !g.reconfigured.Triggered() {
		g.reconfigured.Trigger()
	}
}

func (g *ShardedGroup) reconfiguredEv() *sim.Event {
	if g.reconfigured.Triggered() {
		g.reconfigured = g.env.NewEvent()
	}
	return g.reconfigured
}

// backlogRecords counts every record not yet committed at the target:
// journal pending, in flight on a lane path, or staged awaiting a commit —
// on active and retiring lanes alike.
func (g *ShardedGroup) backlogRecords() int {
	var n int
	for _, l := range g.commitLanes() {
		n += l.journal.Pending() + l.inflight + len(l.staged)
	}
	return n
}

// CatchUp blocks until every journaled record is committed at the target,
// or the group stops. It reports whether the group fully caught up.
func (g *ShardedGroup) CatchUp(p *sim.Proc) bool {
	for g.backlogRecords() > 0 {
		if g.stopped {
			return false
		}
		if p.WaitAny(g.committedEv(), g.stopEv) == 1 {
			return false
		}
	}
	return true
}

// RPO returns the recovery-point exposure at virtual time now: the age of
// the oldest acked record not yet applied at the target, wherever it sits
// (journal backlog, in flight on a lane, or staged awaiting a commit). Zero
// when fully caught up.
func (g *ShardedGroup) RPO(now time.Duration) time.Duration {
	var oldest time.Duration
	found := false
	note := func(t time.Duration) {
		if !found || t < oldest {
			oldest, found = t, true
		}
	}
	for _, l := range g.commitLanes() {
		if t, ok := l.journal.OldestPendingAck(); ok {
			note(t)
		}
		if len(l.staged) > 0 {
			note(l.staged[0].AckedAt)
		}
		if l.inflight > 0 {
			note(l.inflightAck)
		}
	}
	if !found {
		return 0
	}
	return now - oldest
}

// Backlog returns the number of records not yet committed at the target.
func (g *ShardedGroup) Backlog() int { return g.backlogRecords() }

// CommittedEpoch returns the highest epoch committed at the target (zero
// while the group commits on one lane).
func (g *ShardedGroup) CommittedEpoch() int64 { return g.committedEpoch }

// DirectApplied returns how many records one-lane commits applied. They are
// the leading records of ApplyLog; every later one was committed by an
// epoch.
func (g *ShardedGroup) DirectApplied() int { return g.directApplied }

// EpochCommits returns how many epochs were committed.
func (g *ShardedGroup) EpochCommits() int64 { return g.epochCommits }

// AppliedRecords returns the lifetime count of committed records.
func (g *ShardedGroup) AppliedRecords() int64 { return g.appliedRecords }

// AppliedBytes returns the lifetime payload bytes committed.
func (g *ShardedGroup) AppliedBytes() int64 { return g.appliedBytes }

// ApplyLog returns the records applied at the target in apply order: the
// one-lane commits in shard-sequence order, then epoch by epoch,
// lane by lane within an epoch, shard-sequence order within a lane. The
// consistency verifier reads it; callers must not mutate it.
func (g *ShardedGroup) ApplyLog() []storage.Record { return g.applyLog }

// UnappliedRecords returns every record acknowledged at the source but not
// part of a committed epoch: journal backlogs, staged-but-uncommitted
// records, and batches abandoned mid-transfer at a split.
func (g *ShardedGroup) UnappliedRecords() []storage.Record {
	out := append([]storage.Record(nil), g.lost...)
	for _, l := range g.commitLanes() {
		out = append(out, l.staged...)
		out = append(out, l.journal.PendingRecords()...)
	}
	return out
}

// Mapping returns a copy of the source→target volume mapping.
func (g *ShardedGroup) Mapping() map[storage.VolumeID]storage.VolumeID {
	m := make(map[storage.VolumeID]storage.VolumeID, len(g.mapping))
	for k, v := range g.mapping {
		m[k] = v
	}
	return m
}

// Reshard transitions the running engine to len(paths) drain lanes with an
// epoch-bounded live migration — the replication half of a dynamic reshard:
//
//  1. the journal seals the open epoch as the migration barrier and
//     re-places volumes (migrating only those whose stable-hash assignment
//     changes, their pending records moving with them);
//  2. lanes whose shard survives keep draining, their next batch over the
//     paths[k] given here; lanes for added shards start immediately on their
//     own paths; lanes of retired shards stop taking (their journals are
//     empty after migration) and only live on to commit what they had
//     staged or in flight. The first reshard past one lane switches the
//     commit process to epochs;
//  3. until every pre-barrier record is committed, epoch commits apply in
//     global ack order (see commitEpoch) — so the backup image remains an
//     exact ack-order prefix throughout, and a failover raced into the
//     migration window recovers either entirely pre- or entirely
//     post-barrier state;
//  4. once the barrier commits, retiring lanes are reaped and their shard
//     journals decommissioned back to the array.
//
// Resharding to the current lane count is a no-op (zero migration, no
// barrier). A second reshard is refused while one is still settling.
func (g *ShardedGroup) Reshard(p *sim.Proc, paths []fabric.Path) (storage.ReshardStats, error) {
	var zero storage.ReshardStats
	if g.stopped {
		return zero, fmt.Errorf("replication: %s: %w", g.name, ErrStopped)
	}
	if g.failedOver {
		return zero, fmt.Errorf("replication: %s: cannot reshard a failed-over group", g.name)
	}
	if len(paths) < 1 {
		return zero, fmt.Errorf("replication: %s: reshard to %d lanes", g.name, len(paths))
	}
	if len(paths) == len(g.lanes) {
		return storage.ReshardStats{From: len(g.lanes), To: len(g.lanes)}, nil
	}
	if g.resharding || len(g.retiring) > 0 {
		return zero, fmt.Errorf("replication: %s: reshard already in progress", g.name)
	}
	stats, err := g.journal.Reshard(len(paths))
	if err != nil {
		return stats, err
	}
	g.resharding = true
	g.migrationBarrier = stats.BarrierEpoch
	g.reshardSettled = g.env.NewEvent()
	g.reshards++
	if g.tel != nil {
		g.reshardSpan = g.tel.StartSpan("reshard",
			fmt.Sprintf("reshard:%d->%d", stats.From, stats.To), g.tenant)
	}

	shards := g.journal.Shards()
	for k := 0; k < min(len(shards), len(g.lanes)); k++ {
		g.lanes[k].path = paths[k]
	}
	if len(shards) < len(g.lanes) {
		// Shrink: lanes beyond the new shard set retire. Their journals are
		// already empty (migration moved the backlog), so they exit as soon
		// as anything they had staged or in flight reaches a commit.
		g.retiring = append(g.retiring, g.lanes[len(shards):]...)
		g.lanes = g.lanes[:len(shards):len(shards)]
	}
	for k := len(g.lanes); k < len(shards); k++ {
		l := g.newLane(k, shards[k], paths[k])
		g.lanes = append(g.lanes, l)
		if g.started {
			g.startLane(l)
		}
	}
	if len(g.lanes) > 1 {
		g.coordinated = true
	}
	// Wake the commit process onto the new lane set; migration may also have
	// unblocked a sealed-epoch barrier wait by moving records around.
	g.pulseReconfigured()
	g.pulseProgress()
	// A reshard with nothing pre-barrier outstanding settles immediately.
	g.settleReshard()
	return stats, nil
}

// settleReshard closes the migration window once every record of epochs <=
// the barrier is committed at the target, then reaps retiring lanes and
// decommissions their shard journals.
func (g *ShardedGroup) settleReshard() {
	if !g.resharding && len(g.retiring) == 0 {
		return
	}
	if g.resharding {
		if !g.allStagedThrough(g.migrationBarrier) {
			return
		}
		for _, l := range g.commitLanes() {
			if len(l.staged) > 0 && l.staged[0].Epoch <= g.migrationBarrier {
				return
			}
		}
		g.resharding = false
	}
	kept := g.retiring[:0]
	for _, l := range g.retiring {
		if l.journal.Pending() == 0 && l.inflight == 0 && len(l.staged) == 0 {
			l.retire.Trigger()
		} else {
			kept = append(kept, l)
		}
	}
	for i := len(kept); i < len(g.retiring); i++ {
		g.retiring[i] = nil
	}
	g.retiring = kept
	if len(g.retiring) == 0 {
		g.journal.DecommissionRetired()
		if !g.reshardSettled.Triggered() {
			g.reshardSettled.Trigger()
		}
		// Close the migration-window span exactly once per reshard; the
		// zero-value reset makes later settle passes no-ops.
		g.reshardSpan.End()
		g.reshardSpan = telemetry.Span{}
	}
}

// Resharding reports whether a migration window is still open (pre-barrier
// records not yet committed, or retiring lanes not yet reaped).
func (g *ShardedGroup) Resharding() bool { return g.resharding || len(g.retiring) > 0 }

// Reshards returns the lifetime count of lane-set transitions.
func (g *ShardedGroup) Reshards() int64 { return g.reshards }

// MigrationBarrier returns the epoch sealed by the most recent reshard.
func (g *ShardedGroup) MigrationBarrier() int64 { return g.migrationBarrier }

// AwaitReshard blocks until the most recent reshard has fully settled (the
// barrier epoch committed, retiring lanes reaped, retired shard journals
// decommissioned), reporting false if the group stops first.
func (g *ShardedGroup) AwaitReshard(p *sim.Proc) bool {
	for g.Resharding() {
		if g.stopped {
			return false
		}
		if p.WaitAny(g.reshardSettled, g.stopEv) == 1 {
			return false
		}
	}
	return true
}

// Failover stops replication and makes every target volume writable,
// returning the volumes in journal-member order. This is the backup-site
// recovery entry point (§I): the image is whatever has been applied — a
// batch boundary on one lane, the last committed epoch past one lane, a
// consistent cross-volume cut either way.
func (g *ShardedGroup) Failover() ([]*storage.Volume, error) {
	g.Stop()
	g.failedOver = true
	var vols []*storage.Volume
	for _, src := range g.journal.Members() {
		tv, err := g.target.Volume(g.mapping[src])
		if err != nil {
			return nil, err
		}
		tv.SetReadOnly(false)
		// Record everything the new production site writes from here on —
		// the delta-resync bitmap Failback copies back.
		tv.StartChangeTracking()
		vols = append(vols, tv)
	}
	return vols, nil
}

// FailedOver reports whether Failover ran.
func (g *ShardedGroup) FailedOver() bool { return g.failedOver }

// Suspended reports whether the source journal has overflowed (the pair
// is suspended and writes are tracked in the delta bitmap instead).
func (g *ShardedGroup) Suspended() bool { return g.journal.Overflowed() }

// Resync recovers a suspended pair: it drains the journal's consistent
// remainder, then copies the tracked delta blocks until a full pass finds
// nothing new, and finally re-enables journaling. During the block-level
// copy the target is NOT point-in-time consistent (which is why operators
// snapshot the target before resyncing — exactly the demo's snapshot
// group). maxPasses bounds convergence under continuous write load.
func (g *ShardedGroup) Resync(p *sim.Proc, source *storage.Array, maxPasses int) error {
	if !g.journal.Overflowed() {
		return nil
	}
	if maxPasses <= 0 {
		maxPasses = 10
	}
	g.CatchUp(p)
	for pass := 0; pass < maxPasses; pass++ {
		copied := false
		for _, src := range g.journal.Members() {
			sv, tv, err := g.pair(source, src)
			if err != nil {
				return err
			}
			blocks := sv.ChangedBlocks()
			if len(blocks) == 0 {
				continue
			}
			// Reset tracking so writes landing during this copy are
			// caught by the next pass.
			sv.StartChangeTracking()
			if err := g.bulkCopy(p, src, sv, tv, blocks); err != nil {
				return fmt.Errorf("replication %s: resync %s: %w", g.name, src, err)
			}
			copied = true
		}
		if !copied {
			// Quiet pass: nothing dirtied since the last reset. No time
			// passes between this check and ClearOverflow, so no write
			// can slip between them.
			g.journal.ClearOverflow()
			return nil
		}
	}
	return fmt.Errorf("replication %s: resync did not converge in %d passes", g.name, maxPasses)
}

func (g *ShardedGroup) String() string {
	return fmt.Sprintf("ShardedADCGroup(%s){lanes=%d epoch=%d committed=%d backlog=%d}",
		g.name, len(g.lanes), g.journal.Epoch(), g.committedEpoch, g.backlogRecords())
}
