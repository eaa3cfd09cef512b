package fleet

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/workload"
)

// tenantOutcome is the per-tenant result surface the golden tests pin.
// Every field a fleet caller (E11/E14/E15) reads is represented.
type tenantOutcome struct {
	Namespace       string
	OrdersPlaced    int64
	Verified        bool
	AnalyticsOrders int
	TimeToReady     time.Duration
	RecoveryTime    time.Duration
	FailoverAt      time.Duration
	JoinedAt        time.Duration
	Left            bool
	LeftAt          time.Duration
	ReclaimOK       bool
	Resharded       bool
	ReshardTime     time.Duration
	MaxRPO          time.Duration
	SalesTxns       int
	StockTxns       int
	Err             string
}

func outcomeOf(t *Tenant) tenantOutcome {
	o := tenantOutcome{
		Namespace:       t.Namespace,
		OrdersPlaced:    t.OrdersPlaced,
		Verified:        t.Verified,
		AnalyticsOrders: t.AnalyticsOrders,
		TimeToReady:     t.TimeToReady,
		RecoveryTime:    t.RecoveryTime,
		FailoverAt:      t.FailoverAt,
		JoinedAt:        t.JoinedAt,
		Left:            t.Left,
		LeftAt:          t.LeftAt,
		ReclaimOK:       t.ReclaimOK,
		Resharded:       t.Resharded,
		ReshardTime:     t.ReshardTime,
		MaxRPO:          t.MaxRPO,
		SalesTxns:       t.Report.SalesTxns,
		StockTxns:       t.Report.StockTxns,
	}
	if t.Err != nil {
		o.Err = t.Err.Error()
	}
	return o
}

// goldenConfig derives a randomized fleet schedule from one seed: roster
// size, load, shard counts, and churn (joins, leaves, reshards) all vary.
func goldenConfig(seed int64) Config {
	rng := rand.New(rand.NewSource(seed * 977))
	cfg := Config{
		Tenants:         3 + rng.Intn(4),
		OrdersPerTenant: 4 + rng.Intn(5),
		Workload:        workload.Config{Items: 20, ItemsPerOrder: 2},
		RPOSample:       time.Duration(1+rng.Intn(4)) * time.Minute,
	}
	cfg.System.Seed = seed
	cfg.System.VolumeBlocks = 256
	if rng.Intn(2) == 0 {
		cfg.JournalShards = 2
	}
	if rng.Intn(2) == 0 {
		cfg.Joins = append(cfg.Joins, JoinSpec{After: time.Duration(1+rng.Intn(5)) * time.Minute})
	}
	if rng.Intn(2) == 0 {
		cfg.Leaves = append(cfg.Leaves, LeaveSpec{Tenant: rng.Intn(cfg.Tenants), After: time.Duration(2+rng.Intn(5)) * time.Minute})
	}
	if rng.Intn(2) == 0 {
		cfg.Reshards = append(cfg.Reshards, ReshardSpec{
			Tenant: rng.Intn(cfg.Tenants),
			After:  time.Duration(1+rng.Intn(3)) * time.Minute,
			Shards: 1 + rng.Intn(3),
		})
	}
	// Half the schedules start OLTP at a fleet-wide barrier (E11's
	// load-then-measure shape), half free-run so the skewed-start path
	// stays covered too.
	cfg.StartBarrier = rng.Intn(2) == 0
	return cfg
}

func runGoldenFleet(t *testing.T, cfg Config) ([]sim.TraceEntry, []tenantOutcome, time.Duration) {
	t.Helper()
	f := New(cfg)
	f.Sys.Env.StartTrace()
	err := f.Run()
	outs := make([]tenantOutcome, len(f.Tenants))
	for i, tn := range f.Tenants {
		outs[i] = outcomeOf(tn)
	}
	if err != nil {
		t.Fatalf("fleet run: %v\noutcomes: %+v", err, outs)
	}
	return f.Sys.Env.Trace(), outs, f.Sys.Env.Now()
}

// outcomeDigest is the FNV-64a digest of a run's per-tenant outcomes and
// end time.
func outcomeDigest(outs []tenantOutcome, end time.Duration) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v end=%v", outs, end)
	return h.Sum64()
}

// goldenOutcomeDigests pins outcomeDigest for goldenConfig seeds 1..8.
// Seeds 6 and 7 were re-pinned when one-lane commits were pipelined (the
// lane transfers while the commit process queues for the backup
// controller): every per-tenant outcome stayed byte-identical and only the
// end time moved, 132.34 -> 131.94 ms and 117.20 -> 116.80 ms, because the
// final drain finishes earlier.
var goldenOutcomeDigests = [8]uint64{
	0x7715bc654de5923f, 0xa12e6b464842478f, 0x6fce91b9ef91cc86, 0xb8163b95f37af4eb,
	0x5fdf504fef71cc07, 0x73e04b5ea83635ed, 0x559f91fd70130ac2, 0x20999479e7851a71,
}

// TestFleetGoldenTraceParallelMatchesSequential runs randomized fleet
// schedules twice and requires byte-identical (at, seq) execution traces and
// identical per-tenant outcomes, with the outcomes and end time matching the
// pinned digests. This is the fleet-level half of the determinism proof;
// internal/sim's golden test covers the kernel on 100 random worlds. The
// name is kept from the removed parallel scheduler so the test ID stays
// stable; what it checks is replay.
func TestFleetGoldenTraceParallelMatchesSequential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := goldenConfig(seed)
			trace, outs, end := runGoldenFleet(t, cfg)
			again, outs2, end2 := runGoldenFleet(t, cfg)
			if end != end2 {
				t.Fatalf("end time diverged on replay: %v vs %v", end, end2)
			}
			if len(trace) != len(again) {
				t.Fatalf("trace length diverged on replay: %d vs %d", len(trace), len(again))
			}
			for i := range trace {
				if trace[i] != again[i] {
					t.Fatalf("trace diverged on replay at step %d: %+v vs %+v", i, trace[i], again[i])
				}
			}
			for i := range outs {
				if outs[i] != outs2[i] {
					t.Fatalf("tenant %s outcome diverged on replay:\nfirst:  %+v\nsecond: %+v",
						outs[i].Namespace, outs[i], outs2[i])
				}
			}
			if got, want := outcomeDigest(outs, end), goldenOutcomeDigests[seed-1]; got != want {
				t.Fatalf("outcome digest = %#x, want %#x\noutcomes: %+v\nend: %v", got, want, outs, end)
			}
		})
	}
}
