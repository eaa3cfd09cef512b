package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// span is one call the benchmark made into a layer. Spans of one tenant
// share its request id; parent indexes the enclosing span (-1 for a root).
type span struct {
	Name   string        `json:"name"`
	Parent int32         `json:"parent"`
	Req    int64         `json:"req"`
	VStart time.Duration `json:"vstart_ns"`
	VEnd   time.Duration `json:"vend_ns"`
	HStart time.Duration `json:"hstart_ns"`
	HEnd   time.Duration `json:"hend_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is the untraced path. Only the first iteration's spans are
// kept: later iterations record theirs, so they pay the same tracing cost,
// and then drop them, so memory stays bounded.
type tracer struct {
	t0    time.Time
	spans []span
	kept  int // spans of the first iteration; -1 until it ended
}

func newTracer() *tracer { return &tracer{t0: time.Now(), kept: -1} }

// endIteration keeps the first iteration's spans and drops any later ones.
func (t *tracer) endIteration() {
	if t == nil {
		return
	}
	if t.kept < 0 {
		t.kept = len(t.spans)
	}
	clear(t.spans[t.kept:])
	t.spans = t.spans[:t.kept]
}

// start opens a span at the process's current virtual time and returns its
// id, to be passed to end and as the parent of nested spans.
func (t *tracer) start(p *sim.Proc, name string, parent int32, req int64) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		Name: name, Parent: parent, Req: req,
		VStart: p.Now(), HStart: time.Since(t.t0),
	})
	return int32(len(t.spans) - 1)
}

// end closes a span.
func (t *tracer) end(p *sim.Proc, id int32) {
	if t == nil || id < 0 {
		return
	}
	s := &t.spans[id]
	s.VEnd, s.HEnd = p.Now(), time.Since(t.t0)
}

// spanSummary is one row of the traced run's span table.
type spanSummary struct {
	name             string
	count            int
	virtP50, virtP99 time.Duration
	virtSelf         time.Duration // total virtual time not covered by child spans
	host             time.Duration // total host time between start and end
}

// summarize aggregates spans by name. A span's self time is its virtual
// duration minus the part covered by its direct children. Host time is the
// wall span of the call, which for a blocking call also covers every other
// simulated process that ran meanwhile, so host busy time per layer comes
// from the CPU profile instead.
func (t *tracer) summarize() []spanSummary {
	children := make([][]int32, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	type agg struct {
		h          *metrics.Histogram
		self, host time.Duration
	}
	by := map[string]*agg{}
	for i, s := range t.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{h: metrics.NewHistogram()}
			by[s.Name] = a
		}
		d := s.VEnd - s.VStart
		a.h.Record(d)
		a.host += s.HEnd - s.HStart
		a.self += d - covered(t.spans, children[i], s.VStart, s.VEnd)
	}
	out := make([]spanSummary, 0, len(by))
	for name, a := range by {
		out = append(out, spanSummary{name: name, count: a.h.Count(),
			virtP50: a.h.Median(), virtP99: a.h.P99(), virtSelf: a.self, host: a.host})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// covered returns how much of [lo, hi) the given spans cover.
func covered(spans []span, ids []int32, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(ids))
	for _, id := range ids {
		a, b := max(spans[id].VStart, lo), min(spans[id].VEnd, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return total
}

// writeSpans writes every span as one JSON array.
func (t *tracer) writeSpans(w io.Writer) error {
	if err := json.NewEncoder(w).Encode(t.spans); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
