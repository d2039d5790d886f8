package backend

import (
	"sync"

	"repro/internal/cost"
	"repro/internal/simtime"
)

// EventLoop models Firecracker's virtio event manager. In the original
// implementation one loop handles request events sequentially, so a write
// spanning several ranks is processed rank after rank (the red staircase of
// Fig. 16). vPIM's parallel operation handling marks the event complete
// immediately and hands the work to a dedicated thread, so concurrent rank
// requests overlap and only the dispatch serializes (Section 4.2).
//
// The overlap is modeled in virtual time here and — when the VMM enables
// simtime's real Par fan-out (GOMAXPROCS > 1; see DESIGN.md "Host
// concurrency") — also real on the wall clock: per-rank request bodies then
// run on their own goroutines.
type EventLoop struct {
	parallel bool
	model    cost.Model

	mu     sync.Mutex
	freeAt simtime.Duration
}

// NewEventLoop creates the per-VM loop. parallel selects vPIM's optimization
// (false reproduces vPIM-Seq).
func NewEventLoop(parallel bool, model cost.Model) *EventLoop {
	return &EventLoop{parallel: parallel, model: model}
}

// Parallel reports the handling mode.
func (l *EventLoop) Parallel() bool { return l.parallel }

// Admit stalls the request until the loop is free and returns the completion
// callback the handler must invoke when processing ends. In sequential mode
// the loop stays busy for the whole request; in parallel mode it frees as
// soon as the worker thread is spawned.
func (l *EventLoop) Admit(tl *simtime.Timeline) func(*simtime.Timeline) {
	if l.parallel {
		// Dispatch hands the request to a dedicated thread immediately;
		// the sub-microsecond dispatch slot never queues measurably, so
		// concurrent rank requests overlap fully.
		tl.Advance(l.model.ThreadSpawn)
		return func(*simtime.Timeline) {}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	tl.AdvanceTo(l.freeAt)
	return func(end *simtime.Timeline) {
		l.mu.Lock()
		defer l.mu.Unlock()
		if end.Now() > l.freeAt {
			l.freeAt = end.Now()
		}
	}
}
