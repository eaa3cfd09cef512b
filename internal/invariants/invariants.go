// Package invariants is the shared library of global correctness checks —
// the properties every experiment asserts by hand today (E13's exact
// ack-order failover prefix, E14's zero-residue decommission, E12/E15's
// consistent cuts) extracted into one implementation that both the
// experiment harnesses and the seeded chaos sweep (internal/chaos) call.
//
// Each checker is a pure function over the modelled state: it takes the
// objects to inspect and returns a slice of Violations (empty = invariant
// holds). Checkers never advance simulation time and never mutate what they
// inspect, so the chaos runner can assert them after every recovery point
// without perturbing the schedule it would need to replay.
//
// The invariants:
//
//   - consistent cut: a recovered sales/stock pair has no orphan stock
//     commits (the paper's collapse) and each volume's image is an exact
//     prefix of its ack order;
//   - stamped prefix: a failed-over volume set holds exactly the blocks
//     {1..K} of the sequence-stamped write order (E13/E15's write-heavy
//     tenants) — nothing leaked past the barrier;
//   - epoch boundary: a sharded group's backup image never exposes a
//     record from an epoch newer than the last committed barrier;
//   - zero residue: a decommissioned tenant left nothing behind on either
//     array (volumes, journals, snapshots);
//   - fail-closed overflow: a journal over its declared capacity has
//     overflowed, a sharded group overflows all-or-none, and every member
//     volume of an overflowed journal is change tracking (the resync delta
//     is being accumulated);
//   - no orphan groups: every registered replication engine belongs to a
//     live tenant;
//   - no leaked watches: an API server has no watch registrations left
//     after its controllers stop;
//   - shared zero block: no array's zero block, which range reads hand
//     out for every unwritten block, was written into.
package invariants

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/consistency"
	"repro/internal/platform"
	"repro/internal/replication"
	"repro/internal/storage"
)

// Violation is one broken invariant, carrying enough context to print a
// useful one-line diagnosis in a chaos repro log or an experiment failure.
type Violation struct {
	// Invariant names the checker that fired (e.g. "consistent-cut").
	Invariant string
	// Tenant is the namespace the violation belongs to ("" for global
	// checks like orphan groups or leaked watches).
	Tenant string
	// Detail is the human-readable specifics.
	Detail string
	// Err is the typed error behind the violation, for checkers that wrap
	// one (errors.Is-able); nil otherwise.
	Err error
}

func (v Violation) String() string {
	if v.Tenant == "" {
		return fmt.Sprintf("%s: %s", v.Invariant, v.Detail)
	}
	return fmt.Sprintf("%s[%s]: %s", v.Invariant, v.Tenant, v.Detail)
}

// violate is the one constructor, so every Detail is formatted the same way.
func violate(invariant, tenant, format string, args ...any) Violation {
	return Violation{Invariant: invariant, Tenant: tenant, Detail: fmt.Sprintf(format, args...)}
}

// StampedPrefix scans a failed-over volume set for its sequence-stamped
// blocks and reports the highest K with {1..K} all present — plus whether
// the image is EXACTLY that prefix (a consistent cross-volume cut: nothing
// newer leaked past the barrier). This is the E13/E15 write-heavy-tenant
// check: each block's first 8 bytes carry the big-endian ack sequence of
// the write that produced it.
func StampedPrefix(vols []*storage.Volume) (int, bool) {
	present := make(map[uint64]bool)
	for _, v := range vols {
		for _, b := range v.WrittenBlocks() {
			present[binary.BigEndian.Uint64(v.Peek(b))] = true
		}
	}
	k := uint64(0)
	for present[k+1] {
		k++
	}
	return int(k), len(present) == int(k)
}

// CheckConsistentCut asserts the paper's core recovery invariant over a
// verified sales/stock pair: the cut did not collapse (no stock commit
// whose sales commit is missing) and each volume recovered an exact prefix
// of its ack order. Lost tails are fine — asynchronous replication loses
// recent commits — but holes and orphans are not.
func CheckConsistentCut(tenant string, rep consistency.Report) []Violation {
	var out []Violation
	if rep.Collapsed() {
		out = append(out, violate("consistent-cut", tenant,
			"collapsed: %d stock commits have no sales commit (first %v)",
			len(rep.OrphanStock), rep.OrphanStock[0]))
	}
	if !rep.SalesPrefixOK {
		out = append(out, violate("consistent-cut", tenant,
			"sales image is not an ack-order prefix (%d txns recovered)", rep.SalesTxns))
	}
	if !rep.StockPrefixOK {
		out = append(out, violate("consistent-cut", tenant,
			"stock image is not an ack-order prefix (%d txns recovered)", rep.StockTxns))
	}
	return out
}

// CheckEpochBoundary asserts that a sharded group's backup image is bounded
// by its epoch barrier: no applied record carries an epoch newer than the
// last committed one. Installs and the committed-epoch advance happen in
// the same scheduler step (replication.ShardedGroup.commitEpoch), so this
// holds at every step boundary — a violation means the barrier leaked.
func CheckEpochBoundary(tenant string, sg *replication.ShardedGroup) []Violation {
	committed := sg.CommittedEpoch()
	maxApplied := int64(0)
	for _, r := range sg.ApplyLog() {
		if r.Epoch > maxApplied {
			maxApplied = r.Epoch
		}
	}
	if maxApplied > committed {
		return []Violation{violate("epoch-boundary", tenant,
			"%s applied a record from epoch %d past committed barrier %d",
			sg.Name(), maxApplied, committed)}
	}
	return nil
}

// CheckZeroResidue asserts a decommissioned tenant reclaimed everything:
// one violation per object still carrying the tenant's prefix on either
// array (the core.System.TenantResidue listing), so len(violations) counts
// leaks exactly the way E14 tallies them.
func CheckZeroResidue(tenant string, residue []string) []Violation {
	out := make([]Violation, 0, len(residue))
	for _, r := range residue {
		out = append(out, violate("zero-residue", tenant, "leaked %s", r))
	}
	return out
}

// CheckFailClosed asserts the overflow contract on a plain (unsharded)
// journal: the backlog never silently exceeds a declared capacity, and once
// overflowed, every member volume is change tracking so a resync can copy
// exactly the delta.
func CheckFailClosed(tenant string, a *storage.Array, j *storage.Journal) []Violation {
	var out []Violation
	if capacity := j.CapacityBytes(); capacity > 0 && !j.Overflowed() && j.PendingBytes() > capacity {
		out = append(out, violate("fail-closed", tenant,
			"journal %s backlog %dB exceeds capacity %dB without overflowing",
			j.ID(), j.PendingBytes(), capacity))
	}
	if j.Overflowed() {
		out = append(out, checkMembersTracking(tenant, a, j)...)
	}
	return out
}

// CheckFailClosedSharded asserts the overflow contract on a sharded
// consistency-group journal: shards overflow all-or-none (a partially
// journaling group cannot replay a consistent cross-shard cut), per-shard
// backlogs respect a declared capacity, and an overflowed group has every
// member volume change tracking.
func CheckFailClosedSharded(tenant string, a *storage.Array, sj *storage.ShardedJournal) []Violation {
	var out []Violation
	for _, j := range sj.Shards() {
		if j.Overflowed() != sj.Overflowed() {
			out = append(out, violate("fail-closed", tenant,
				"shard %s overflowed=%v but group %s overflowed=%v (must fail closed all-or-none)",
				j.ID(), j.Overflowed(), sj.ID(), sj.Overflowed()))
		}
		if capacity := j.CapacityBytes(); capacity > 0 && !j.Overflowed() && j.PendingBytes() > capacity {
			out = append(out, violate("fail-closed", tenant,
				"shard %s backlog %dB exceeds capacity %dB without overflowing",
				j.ID(), j.PendingBytes(), capacity))
		}
		if sj.Overflowed() {
			out = append(out, checkMembersTracking(tenant, a, j)...)
		}
	}
	return out
}

func checkMembersTracking(tenant string, a *storage.Array, j *storage.Journal) []Violation {
	var out []Violation
	for _, id := range j.Members() {
		v, err := a.Volume(id)
		if err != nil {
			out = append(out, violate("fail-closed", tenant,
				"overflowed journal %s member %s: %v", j.ID(), id, err))
			continue
		}
		if !v.TrackingChanges() {
			out = append(out, violate("fail-closed", tenant,
				"overflowed journal %s member %s is not change tracking", j.ID(), id))
		}
	}
	return out
}

// CheckNoOrphanGroups asserts every registered replication engine still
// belongs to a live tenant: nsOf maps an engine to its owning namespace
// ("" = unowned), live reports whether that namespace is still managed.
// Engines are examined in Name() order so the violation list is
// deterministic regardless of registry iteration order.
func CheckNoOrphanGroups(groups []replication.Replicator, nsOf func(replication.Replicator) string, live func(string) bool) []Violation {
	sorted := make([]replication.Replicator, len(groups))
	copy(sorted, groups)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name() < sorted[j].Name() })
	var out []Violation
	for _, g := range sorted {
		ns := nsOf(g)
		if ns == "" {
			out = append(out, violate("no-orphan-groups", "",
				"engine %s is registered but owned by no tenant", g.Name()))
			continue
		}
		if !live(ns) {
			out = append(out, violate("no-orphan-groups", ns,
				"engine %s outlived its tenant", g.Name()))
		}
	}
	return out
}

// CheckNoWatches asserts an API server has no watch registrations left —
// every controller unregistered on Stop. Meaningful only after the system
// quiesced; site labels the server in the violation.
func CheckNoWatches(site string, api *platform.APIServer) []Violation {
	if n := api.WatchCount(); n != 0 {
		return []Violation{violate("no-leaked-watches", "",
			"%s API server still holds %d watches after stop", site, n)}
	}
	return nil
}

// CheckSharedZeroBlock asserts that every array's shared zero block is
// still all zeroes. Range reads return stored block buffers by reference
// and this one block for every unwritten block, so a caller that wrote
// into a ReadRange result would silently change the image of every
// unwritten block on its array. Err carries storage.ErrZeroBlockWritten.
func CheckSharedZeroBlock(arrays ...*storage.Array) []Violation {
	var out []Violation
	for _, a := range arrays {
		if err := a.CheckZeroBlock(); err != nil {
			v := violate("shared-zero-block", "", "%v", err)
			v.Err = err
			out = append(out, v)
		}
	}
	return out
}
