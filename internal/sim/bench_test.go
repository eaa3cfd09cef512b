package sim

import (
	"testing"
	"time"
)

// Per-layer kernel benchmarks: one per step kind, each sized by b.N so the
// figure is a steady-state cost per step. Run them with
//
//	go test -run '^$' -bench . -benchmem ./internal/sim

// BenchmarkHandoffStep is one ordinary step: a process sleeps, the entry
// goes through the heap, and the scheduler resumes the process goroutine
// (one resume+yield channel round trip).
func BenchmarkHandoffStep(b *testing.B) {
	env := NewEnv(1)
	env.Process("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Nanosecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.Run(0)
}

// BenchmarkInlineDo is one inline step: zero-duration work a process runs
// through Proc.Do, with no scheduler round trip.
func BenchmarkInlineDo(b *testing.B) {
	env := NewEnv(1)
	n := 0
	env.Process("doer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Do(func() { n++ })
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.Run(0)
	if n != b.N {
		b.Fatalf("ran %d inline steps, want %d", n, b.N)
	}
}

// BenchmarkHeapPushPop is one heap push and pop at a depth of 1,024 pending
// entries: an inline step that reschedules itself a few microseconds ahead,
// so no goroutine handoff is involved.
func BenchmarkHeapPushPop(b *testing.B) {
	env := NewEnv(1)
	const depth = 1024
	for i := 0; i < depth; i++ {
		env.After(time.Hour+time.Duration(i), func() {})
	}
	n := 0
	var step func()
	step = func() {
		if n++; n < b.N {
			env.After(time.Duration(1+n%7)*time.Microsecond, step)
		}
	}
	env.After(0, step)
	b.ReportAllocs()
	b.ResetTimer()
	env.Run(time.Hour - 1)
	if n != b.N {
		b.Fatalf("ran %d steps, want %d", n, b.N)
	}
}

// BenchmarkTimerCancel is one WaitTimeout the event wins: the timer entry is
// pushed, then removed from the heap eagerly when an inline step triggers
// the event, and the waiter resumes.
func BenchmarkTimerCancel(b *testing.B) {
	env := NewEnv(1)
	env.Process("waiter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ev := env.NewEvent()
			env.Immediate(ev.Trigger)
			if !p.WaitTimeout(ev, time.Hour) {
				b.Error("timeout fired, want event")
				return
			}
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.Run(0)
	if got := env.Stats().TimerCancels; got != int64(b.N) {
		b.Fatalf("TimerCancels = %d, want %d", got, b.N)
	}
}

// TestSteadyStateStepsDoNotAllocate pins the kernel's allocation cost per
// steady-state step: a Sleep step (heap push, pop, handoff) and a Proc.Do
// step allocate nothing once the slab and queues have grown.
func TestSteadyStateStepsDoNotAllocate(t *testing.T) {
	env := NewEnv(1)
	stop, n := false, 0
	env.Process("stepper", func(p *Proc) {
		for !stop {
			p.Sleep(time.Millisecond)
			p.Do(func() { n++ })
		}
	})
	step := func() { env.Run(env.Now() + time.Millisecond) }
	step() // warm up: grow the slab and queues
	if got := testing.AllocsPerRun(1000, step); got != 0 {
		t.Fatalf("steady-state Sleep+Do step allocates %.1f times, want 0", got)
	}
	if n < 1000 {
		t.Fatalf("stepper ran %d steps, want >= 1000", n)
	}
	stop = true
	env.Run(0)
	if env.Procs() != 0 {
		t.Fatalf("%d processes still live", env.Procs())
	}
}

// TestWaitOnFreshEventDoesNotAllocate pins the cost of blocking on an event
// nobody has waited on yet: the first waiter lives in the event's inline
// backing array, so one Wait and one WaitAny (over a caller-owned slice)
// allocate nothing beyond the events themselves, made up front here.
func TestWaitOnFreshEventDoesNotAllocate(t *testing.T) {
	const runs = 1000
	env := NewEnv(1)
	waitEvs, anyEvs := make([]*Event, runs+3), make([]*Event, runs+3)
	for i := range waitEvs {
		waitEvs[i], anyEvs[i] = env.NewEvent(), env.NewEvent()
	}
	never := env.NewEvent()
	set := make([]*Event, 2)
	i, stop := 0, false
	env.Process("waiter", func(p *Proc) {
		for k := 0; !stop; k++ {
			p.Wait(waitEvs[k])
			set[0], set[1] = never, anyEvs[k]
			if p.WaitAny(set...) != 1 {
				t.Error("WaitAny resumed on the wrong event")
				return
			}
		}
	})
	env.Process("trigger", func(p *Proc) {
		for ; !stop; i++ {
			p.Sleep(time.Millisecond)
			waitEvs[i].Trigger()
			p.Sleep(0) // let the waiter block in WaitAny first
			anyEvs[i].Trigger()
		}
	})
	step := func() { env.Run(env.Now() + time.Millisecond) }
	step() // warm up: grow the slab and queues
	if got := testing.AllocsPerRun(runs, step); got != 0 {
		t.Fatalf("Wait+WaitAny on fresh events allocates %.1f times, want 0", got)
	}
	if i < runs {
		t.Fatalf("triggered %d rounds, want >= %d", i, runs)
	}
	stop = true
	waitEvs[i].Trigger()
	anyEvs[i].Trigger()
	env.Run(0)
}
