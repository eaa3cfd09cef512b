package replication

import (
	"time"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// Replicator is the control-plane-facing surface of the ADC engine. The
// replication plugin, core, fleet and the chaos sweep operate on it; every
// implementation is a ShardedGroup.
type Replicator interface {
	Name() string
	Start()
	Stop()
	Stopped() bool

	// InitialCopy bulk-copies every written source block to the target.
	InitialCopy(p *sim.Proc, source *storage.Array) error
	// CatchUp blocks until every journaled record is applied (or the
	// engine stops), reporting whether it fully caught up.
	CatchUp(p *sim.Proc) bool

	RPO(now time.Duration) time.Duration
	Backlog() int
	AppliedRecords() int64
	AppliedBytes() int64
	ApplyLog() []storage.Record
	UnappliedRecords() []storage.Record
	// DirectApplied and CommittedEpoch locate the commit boundary the
	// invariants check: the leading DirectApplied records of ApplyLog were
	// applied by one-lane commits, the rest by epoch commits.
	DirectApplied() int
	CommittedEpoch() int64

	// Members returns the consistency group's volumes in attach order.
	Members() []storage.VolumeID
	Mapping() map[storage.VolumeID]storage.VolumeID
	// JournalID names the source journal (its shards carry derived IDs).
	JournalID() string

	// Lanes returns the engine's active drain-lane count. The reconcile
	// loop diffs it against the declared shard count to detect reshard
	// work.
	Lanes() int
	// Reshard transitions the engine to len(paths) drain lanes via an
	// epoch-bounded live migration (lane k drains shard k over paths[k]).
	Reshard(p *sim.Proc, paths []fabric.Path) (storage.ReshardStats, error)
	// Resharding reports whether a migration window is still open.
	Resharding() bool

	// Suspended reports whether the journal overflowed; Resync recovers.
	Suspended() bool
	Resync(p *sim.Proc, source *storage.Array, maxPasses int) error

	Failover() ([]*storage.Volume, error)
	FailedOver() bool
	// Failback resynchronizes the original source from the failed-over
	// targets and starts a one-lane reverse group.
	Failback(p *sim.Proc, source *storage.Array, reversePath fabric.Path) (*ShardedGroup, FailbackStats, error)

	// Instrument registers the engine's telemetry probes (RPO, backlog,
	// lane state) under the tenant label. No-op when reg is nil.
	Instrument(reg *telemetry.Registry, tenant string)
}

var _ Replicator = (*ShardedGroup)(nil)
