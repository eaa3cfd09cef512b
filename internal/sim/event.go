package sim

// Event is a one-shot condition processes can wait on. The zero value is not
// usable; create events with Env.NewEvent. Triggering an already-triggered
// event is a no-op, which makes completion signalling idempotent.
type Event struct {
	env       *Env
	triggered bool
	waiters   []waiter
}

// waiter pairs a blocked process with its optional timeout entry so that a
// trigger can cancel the pending timer (0 = no timer; refs are only valid
// while the entry is pending, which holds because the process stays blocked
// until either the timer pops or the trigger cancels it). For WaitAny, group
// lists the sibling events the process is simultaneously registered on, so
// the first trigger can deregister the rest and prevent double resumption.
type waiter struct {
	proc  *Proc
	timer entryRef
	group []*Event
}

// NewEvent returns an untriggered event bound to the environment.
func (e *Env) NewEvent() *Event { return &Event{env: e} }

// Triggered reports whether the event has fired.
func (ev *Event) Triggered() bool { return ev.triggered }

// Trigger fires the event, scheduling every waiter to resume at the current
// virtual time. Waiters resume in the order they began waiting.
func (ev *Event) Trigger() {
	if ev.triggered {
		return
	}
	ev.triggered = true
	for _, w := range ev.waiters {
		if w.timer != 0 {
			ev.env.cancelEntry(w.timer)
		}
		for _, other := range w.group {
			if other != ev {
				other.remove(w.proc)
			}
		}
		ev.env.schedule(w.proc, ev.env.now)
	}
	ev.waiters = nil
}

// remove deregisters p from the waiter list (used after a timeout fires so a
// later Trigger does not resume a process that already moved on).
func (ev *Event) remove(p *Proc) {
	for i, w := range ev.waiters {
		if w.proc == p {
			ev.waiters = append(ev.waiters[:i], ev.waiters[i+1:]...)
			return
		}
	}
}
