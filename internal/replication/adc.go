// Package replication implements the paper's remote-copy engines:
//
//   - ShardedGroup — asynchronous data copy (ADC, §III-A1): drain lanes move
//     journal records across the inter-site link in batches and apply them
//     at the backup array in ack order. A consistency group's volumes share
//     one journal, so cross-volume ordering is preserved; with one group per
//     volume it is not (the configuration experiment E6 shows collapses).
//     A plain consistency group is a one-shard journal on one lane.
//   - SyncVolume — synchronous data copy (SDC, §V baseline): every write
//     waits for the remote apply and the returning ack, putting the link RTT
//     on the business-processing path.
package replication

import "errors"

// ErrStopped is returned by operations on a stopped replication group.
var ErrStopped = errors.New("replication: group stopped")

// Config tunes the ADC drain.
type Config struct {
	// BatchMax is the largest number of journal records moved per link
	// transfer (default 64). E9 sweeps it.
	BatchMax int
}

func (c Config) withDefaults() Config {
	if c.BatchMax <= 0 {
		c.BatchMax = 64
	}
	return c
}

// Group is never constructed. It exists only so that code type-switching
// on both *Group and *ShardedGroup (the benchmark module) still compiles: an
// alias would make the two cases duplicates.
type Group struct{ ShardedGroup }
