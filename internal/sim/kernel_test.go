package sim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// TestWaitTimeoutReclaimsTimerEntry is the regression test for the timer
// leak: when the event wins, the loser timer entry must leave the heap
// immediately instead of squatting there until its original deadline.
func TestWaitTimeoutReclaimsTimerEntry(t *testing.T) {
	env := NewEnv(1)
	const rounds = 1000
	high := 0
	env.Process("watcher", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			ev := env.NewEvent()
			env.Process("firer", func(q *Proc) {
				q.Sleep(time.Microsecond)
				q.Trigger(ev)
			})
			// Far deadline: a leaked timer would stay pending ~forever.
			if !p.WaitTimeout(ev, time.Hour) {
				t.Errorf("round %d: timeout fired, want event", i)
			}
			if n := env.Pending(); n > high {
				high = n
			}
		}
	})
	env.Run(0)
	// Each round keeps at most a handful of entries live (the firer's
	// wakeup, the watcher's resume). 1000 leaked hour-long timers would
	// push this into the hundreds.
	if high > 8 {
		t.Fatalf("live entries peaked at %d, want <= 8 (timer entries leaking)", high)
	}
	if got := env.Stats().TimerCancels; got < rounds {
		t.Fatalf("TimerCancels = %d, want >= %d", got, rounds)
	}
	if n := env.Pending(); n != 0 {
		t.Fatalf("%d entries still pending after run", n)
	}
}

// TestWaitTimeoutStillTimesOut guards the other half of the contract after
// the eager-cancel change.
func TestWaitTimeoutStillTimesOut(t *testing.T) {
	env := NewEnv(1)
	var fired bool
	env.Process("waiter", func(p *Proc) {
		fired = p.WaitTimeout(env.NewEvent(), 5*time.Millisecond)
	})
	end := env.Run(0)
	if fired {
		t.Fatal("WaitTimeout reported the event, want timeout")
	}
	if end != 5*time.Millisecond {
		t.Fatalf("run ended at %v, want 5ms", end)
	}
}

func TestInlineStepsRunWithoutHandoff(t *testing.T) {
	env := NewEnv(1)
	var order []string
	env.Process("p", func(p *Proc) {
		p.Sleep(time.Millisecond)
		order = append(order, "proc@1ms")
	})
	env.After(time.Millisecond, func() { order = append(order, "fn@1ms") })
	env.After(0, func() {
		order = append(order, "fn@0")
		env.Immediate(func() { order = append(order, "fn@0b") })
	})
	base := env.Stats().Handoffs
	env.Run(0)
	// The 1ms fn was scheduled before the process's sleep resume, so its
	// seq — and therefore its turn — comes first.
	want := []string{"fn@0", "fn@0b", "fn@1ms", "proc@1ms"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	st := env.Stats()
	if st.InlineSteps != 3 {
		t.Fatalf("InlineSteps = %d, want 3", st.InlineSteps)
	}
	if st.Handoffs-base != 2 {
		t.Fatalf("Handoffs = %d, want 2 (one start, one sleep resume)", st.Handoffs-base)
	}
}

func TestProcDoCountsInlineWork(t *testing.T) {
	env := NewEnv(1)
	ran := 0
	env.Process("p", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Do(func() { ran++ })
		}
	})
	env.Run(0)
	if ran != 5 {
		t.Fatalf("ran = %d, want 5", ran)
	}
	if got := env.Stats().InlineSteps; got != 5 {
		t.Fatalf("InlineSteps = %d, want 5", got)
	}
}

// buildRandomWorld wires a randomized workload: nWorkers processes doing
// random sleeps and timeouts, each waking a private helper midway through,
// plus a shared collector the workers signal once all of them finish. Every
// observable (per-worker logs, collector log) is returned for replay checks.
func buildRandomWorld(env *Env, seed int64, nWorkers, steps int) (logs [][]string, collected *[]string) {
	logs = make([][]string, nWorkers)
	shared, finished := 0, 0
	collector := &[]string{}
	done := env.NewEvent()
	for d := 0; d < nWorkers; d++ {
		d := d
		rng := rand.New(rand.NewSource(seed + int64(d)*997))
		env.Process(fmt.Sprintf("worker%d", d), func(p *Proc) {
			local := env.NewEvent()
			env.Process(fmt.Sprintf("helper%d", d), func(q *Proc) {
				q.Wait(local)
				logs[d] = append(logs[d], fmt.Sprintf("helper@%v", q.Now()))
			})
			for i := 0; i < steps; i++ {
				p.Sleep(time.Duration(rng.Intn(5)) * time.Millisecond)
				logs[d] = append(logs[d], fmt.Sprintf("s%d@%v", i, p.Now()))
				if i == steps/2 {
					local.Trigger()
				}
				if rng.Intn(3) == 0 {
					ev := env.NewEvent()
					if p.WaitTimeout(ev, time.Duration(rng.Intn(3))*time.Millisecond) {
						logs[d] = append(logs[d], "impossible")
					}
				}
				shared++
			}
			p.Sleep(0) // yield to the rest of the instant before reporting
			*collector = append(*collector, fmt.Sprintf("d%d@%v", d, p.Now()))
			if finished++; finished == nWorkers {
				done.Trigger()
			}
		})
	}
	env.Process("collector", func(p *Proc) {
		p.Wait(done)
		*collector = append(*collector, fmt.Sprintf("all@%v n=%d", p.Now(), shared))
	})
	return logs, collector
}

// runRandomWorld runs one random world to completion and renders everything
// observable about it: end time, the (at, seq) trace, and every log.
func runRandomWorld(seed int64) string {
	env := NewEnv(seed)
	env.StartTrace()
	logs, col := buildRandomWorld(env, seed, 2+int(seed%7), 4+int(seed%11))
	end := env.Run(0)
	var b strings.Builder
	fmt.Fprintf(&b, "end=%v\n", end)
	for _, s := range env.Trace() {
		fmt.Fprintf(&b, "%d/%d\n", s.At, s.Seq)
	}
	fmt.Fprintf(&b, "%v\n%v\n", logs, *col)
	return b.String()
}

// randomWorldsDigest is the FNV-64a digest of runRandomWorld over seeds
// 1..100. It pins the kernel's sequential (at, seq) order: a change that
// moves any step of any world changes it.
const randomWorldsDigest = 0x4cc3916237e0c834

// TestRandomWorldsReplay is the kernel-level golden-trace test: 100 random
// worlds, each run twice with byte-identical traces and logs, and all of
// them together matching the pinned digest.
func TestRandomWorldsReplay(t *testing.T) {
	h := fnv.New64a()
	for seed := int64(1); seed <= 100; seed++ {
		a, b := runRandomWorld(seed), runRandomWorld(seed)
		if a != b {
			t.Fatalf("seed %d: replay diverged:\nfirst:  %s\nsecond: %s", seed, a, b)
		}
		h.Write([]byte(a))
	}
	if got := h.Sum64(); got != randomWorldsDigest {
		t.Fatalf("random-world digest = %#x, want %#x: the kernel's step order moved", got, uint64(randomWorldsDigest))
	}
}
