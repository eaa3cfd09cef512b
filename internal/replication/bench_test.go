package replication

import (
	"testing"
	"time"

	"repro/internal/netlink"
	"repro/internal/sim"
)

// Per-layer replication benchmarks: one commit cycle per iteration. Run
// them with
//
//	go test -run '^$' -bench . -benchmem ./internal/replication

// BenchmarkOneLaneCommit is one one-lane cycle: a record is appended,
// transferred and staged by the lane, then applied by the commit process.
func BenchmarkOneLaneCommit(b *testing.B) {
	r := newRig(b, netlink.Config{Propagation: time.Millisecond})
	g := r.newCG(b, Config{})
	g.Start()
	buf := fill(r.main, 0x5A)
	r.env.Process("io", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if _, err := r.sales.Write(p, int64(i%256), buf); err != nil {
				b.Error(err)
				break
			}
			g.CatchUp(p)
		}
		g.Stop()
	})
	b.ReportAllocs()
	b.ResetTimer()
	r.env.Run(0)
	if got := g.AppliedRecords(); got != int64(b.N) {
		b.Fatalf("applied %d records, want %d", got, b.N)
	}
}

// BenchmarkEpochCommit is one two-lane epoch cycle: one record per shard,
// each lane transfers and stages its own, and the commit process seals the
// epoch, waits at the barrier and commits both records.
func BenchmarkEpochCommit(b *testing.B) {
	r := newShardedRig(b, 2, 2, netlink.Config{Propagation: time.Millisecond}, Config{})
	r.g.Start()
	buf := fill(r.main, 0x5A)
	r.env.Process("io", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			for _, id := range r.vols {
				v, _ := r.main.Volume(id)
				if _, err := v.Write(p, int64(i%256), buf); err != nil {
					b.Error(err)
				}
			}
			r.g.CatchUp(p)
		}
		r.g.Stop()
	})
	b.ReportAllocs()
	b.ResetTimer()
	r.env.Run(0)
	if got := r.g.AppliedRecords(); got != int64(2*b.N) {
		b.Fatalf("applied %d records, want %d", got, 2*b.N)
	}
	if got := r.g.EpochCommits(); got < int64(b.N) {
		b.Fatalf("%d epoch commits for %d cycles", got, b.N)
	}
}
