package sim

import "time"

// Proc is a simulated process: a goroutine that advances only when the
// scheduler resumes it. Inside the process function, call Sleep and Wait to
// let virtual time pass; both must be called from the process's own
// goroutine.
type Proc struct {
	env    *Env
	name   string
	resume chan struct{}
	done   bool
	// Done triggers when the process function returns; other processes can
	// Wait on it to join.
	Done *Event
}

func (e *Env) newProc(name string) *Proc {
	p := &Proc{
		env:    e,
		name:   name,
		resume: make(chan struct{}),
	}
	p.Done = e.NewEvent()
	return p
}

func (e *Env) startProc(p *Proc, at time.Duration, fn func(p *Proc)) {
	e.procs++
	go func() {
		<-p.resume
		fn(p)
		p.done = true
		e.procs--
		p.Done.Trigger()
		e.yield <- struct{}{}
	}()
	if at < e.now {
		at = e.now
	}
	e.schedule(p, at)
}

// Process starts fn as a new simulated process scheduled to begin at the
// current virtual time. The name is used in diagnostics only.
func (e *Env) Process(name string, fn func(p *Proc)) *Proc {
	p := e.newProc(name)
	e.startProc(p, e.now, fn)
	return p
}

// ProcessAt is Process but with the first resumption delayed until time at.
func (e *Env) ProcessAt(name string, at time.Duration, fn func(p *Proc)) *Proc {
	p := e.newProc(name)
	e.startProc(p, at, fn)
	return p
}

// Name returns the process name given at creation.
func (p *Proc) Name() string { return p.name }

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.env.now }

// Do runs fn inline as zero-duration work attributed to the process. It
// exists so call sites can make "this is deliberately instantaneous — no
// scheduler round trip" explicit, and so the kernel can count how much
// work the batch-grained code paths perform without a handoff.
func (p *Proc) Do(fn func()) {
	p.env.stats.InlineSteps++
	fn()
}

// Trigger fires ev on behalf of the process; it is exactly Event.Trigger.
func (p *Proc) Trigger(ev *Event) { ev.Trigger() }

// Sleep suspends the process for d of virtual time. Negative durations are
// treated as zero (yield to same-time events scheduled earlier).
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.env.schedule(p, p.env.now+d)
	p.block()
}

// block yields control to the scheduler and waits to be resumed.
func (p *Proc) block() {
	p.env.yield <- struct{}{}
	<-p.resume
}

// Wait suspends the process until ev triggers. If ev has already triggered,
// Wait returns immediately without advancing time.
func (p *Proc) Wait(ev *Event) {
	if ev.triggered {
		return
	}
	ev.addWaiter(waiter{proc: p})
	p.env.blocked++
	p.block()
	p.env.blocked--
}

// WaitAny suspends the process until any of the given events triggers and
// returns the index of a triggered event (the lowest-indexed one when
// several fire at once). Events already triggered return immediately.
func (p *Proc) WaitAny(evs ...*Event) int {
	for i, ev := range evs {
		if ev.triggered {
			return i
		}
	}
	for _, ev := range evs {
		ev.addWaiter(waiter{proc: p, group: evs})
	}
	p.env.blocked++
	p.block()
	p.env.blocked--
	for i, ev := range evs {
		if ev.triggered {
			return i
		}
	}
	panic("sim: WaitAny resumed with no triggered event")
}

// WaitTimeout waits for ev or until d elapses, whichever comes first. It
// reports whether the event triggered (true) or the timeout fired (false).
func (p *Proc) WaitTimeout(ev *Event, d time.Duration) bool {
	if ev.triggered {
		return true
	}
	timer := p.env.schedule(p, p.env.now+d)
	ev.addWaiter(waiter{proc: p, timer: timer})
	p.env.blocked++
	p.block()
	p.env.blocked--
	// Exactly one of the two sources resumed us: a trigger (which canceled
	// the timer while it was still pending) or the timer pop (which can only
	// happen while the event is untriggered — a later trigger cannot run
	// before this check because no other process runs in between). So the
	// event state alone identifies the winner; the timer entry has been
	// recycled if it popped and must not be read here.
	if ev.triggered {
		return true
	}
	ev.remove(p)
	return false
}
