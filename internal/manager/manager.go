// Package manager implements vPIM's host-side manager (Section 3.5): the
// userspace program that tracks every UPMEM rank on the machine, arbitrates
// rank allocation between VMs (and native applications), and resets rank
// memory between tenants so no data leaks across VMs (requirement R2).
//
// Rank lifecycle (Fig. 5): unallocated ranks start NAAV (not allocated,
// available); allocation moves them to ALLO; release moves them to NANA (not
// allocated, not available) until the reset erases their content and returns
// them to NAAV. As an optimization the manager hands a NANA rank straight
// back to its previous owner without resetting, saving the ~597 ms memset.
//
// Allocation requests that find no rank do not fail immediately: they join a
// FIFO waiter queue and sleep through up to Retries poll intervals (the
// retry-with-timeout loop of Section 3.5), so a concurrent release satisfies
// the oldest waiting request. Only the time actually slept is charged on the
// virtual clock. A FaultPolicy can inject rank failures; failed ranks are
// quarantined (QUAR) rather than handed to tenants.
package manager

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/pim"
)

// RankState is a rank's position in the Fig. 5 lifecycle.
type RankState int

const (
	// StateNAAV: not allocated, available (clean).
	StateNAAV RankState = iota + 1
	// StateALLO: allocated to a VM or native application.
	StateALLO
	// StateNANA: not allocated, not available (dirty, awaiting reset).
	StateNANA
	// StateQUAR: quarantined after a fault (reset failure or rank death);
	// never handed to tenants until the observer revives it.
	StateQUAR
)

// String implements fmt.Stringer.
func (s RankState) String() string {
	switch s {
	case StateNAAV:
		return "NAAV"
	case StateALLO:
		return "ALLO"
	case StateNANA:
		return "NANA"
	case StateQUAR:
		return "QUAR"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Errors reported by the manager.
var (
	// ErrNoRanks is returned when every retry attempt found no allocatable
	// rank (the "request is abandoned" case of Section 3.5).
	ErrNoRanks = errors.New("manager: no rank available after retries")
	// ErrNotAllocated reports a release of a rank the manager does not
	// consider allocated.
	ErrNotAllocated = errors.New("manager: rank is not allocated")
	// ErrClosed reports an allocation against a manager that has shut down;
	// pending waiters are woken with this error.
	ErrClosed = errors.New("manager: closed")
	// ErrRankFaulted reports that a rank died while allocated (fault
	// injection); the rank has been quarantined and the owner must fail
	// over or re-attach.
	ErrRankFaulted = errors.New("manager: rank faulted")
	// ErrRankBusy reports a migration attempt against a rank with an
	// operation in flight (pinned by Acquire).
	ErrRankBusy = errors.New("manager: rank busy")
)

// Options tunes the manager. Zero values select the prototype's defaults.
type Options struct {
	// Threads is the request thread-pool size (8 in the prototype). The
	// pool bounds in-flight requests, not connections; an allocation parked
	// in the waiter queue does not hold a thread.
	Threads int
	// Retries is how many times an allocation re-polls before abandoning.
	Retries int
	// RetryTimeout is the first poll interval of a waiting allocation;
	// the requester really sleeps it, and is charged exactly what it slept.
	RetryTimeout time.Duration
	// Backoff multiplies the poll interval after each failed attempt
	// (exponential backoff). Values below 1 are treated as 1 (constant
	// interval); 0 selects the default of 2.
	Backoff float64
	// SchedPolicy selects how oversubscription is arbitrated; the default
	// SchedNone keeps the pure FIFO wait queue (see scheduler.go).
	SchedPolicy SchedPolicy
	// Quantum is the virtual runtime a tenant may accumulate on a rank
	// before it becomes preemptible under SchedSlice; 0 selects 5 ms.
	Quantum time.Duration
}

func (o Options) withDefaults() Options {
	if o.Threads == 0 {
		o.Threads = 8
	}
	if o.Retries == 0 {
		o.Retries = 3
	}
	if o.RetryTimeout == 0 {
		o.RetryTimeout = 100 * time.Millisecond
	}
	if o.Backoff == 0 {
		o.Backoff = 2
	}
	if o.Backoff < 1 {
		o.Backoff = 1
	}
	if o.Quantum == 0 {
		o.Quantum = 5 * time.Millisecond
	}
	return o
}

// FaultPolicy injects failures into the manager for robustness testing
// (chaos-style fault injection). All hooks are optional and must be safe for
// concurrent use; they are consulted with the manager lock held, so they
// must not call back into the manager.
type FaultPolicy struct {
	// FailReset reports whether erasing the given rank fails. A failed
	// reset quarantines the rank instead of returning it to the pool.
	FailReset func(rank int) bool
	// AllocStall returns extra virtual latency injected into an allocation
	// by the given owner (a slow-manager stall).
	AllocStall func(owner string) time.Duration
	// RankDead reports whether the rank's hardware has died. Dead ranks are
	// quarantined when the manager is about to hand them out, or when
	// Acquire observes the death on an allocated rank.
	RankDead func(rank int) bool
	// FailCheckpoint reports whether checkpointing the given rank fails
	// (the snapshot copy off a rank being preempted or migrated). The rank
	// keeps running; the preemption or migration is abandoned.
	FailCheckpoint func(rank int) bool
	// FailRestore reports whether restoring a snapshot onto the given rank
	// fails. A failed restore leaves the target with an unknown mix of
	// tenant bytes, so the manager quarantines it.
	FailRestore func(rank int) bool
}

type entry struct {
	rank      *pim.Rank
	state     RankState
	owner     string
	prevOwner string
	// pins counts operations in flight on an ALLO rank (Acquire/EndOp);
	// the scheduler never preempts a pinned rank.
	pins int
	// debt is checkpoint work performed to free this rank that nobody has
	// been charged for yet; the next grantee (or the observer's reset
	// pass) absorbs it into its virtual clock.
	debt time.Duration
}

// waiter is one queued allocation request. The grant is delivered through
// ready (buffered, sent exactly once, always under the manager lock).
type waiter struct {
	owner string
	ready chan grant
}

// grant is the outcome handed to a waiter: a rank plus the extra virtual
// cost its preparation incurred (a reset, and/or the checkpoint debt of a
// preempted previous tenant), or a terminal error.
type grant struct {
	rank  *pim.Rank
	extra time.Duration
	ck    time.Duration // absorbed checkpoint debt (reported separately)
	err   error
}

// allocHooks observes a blocking allocation's park/unpark transitions so the
// server can hand its request-pool slot back while the allocation waits.
// Both hooks are called without the manager lock held.
type allocHooks struct {
	park   func()
	unpark func()
}

// Manager is the rank table plus allocation policy. All methods are safe for
// concurrent use.
type Manager struct {
	opts         Options
	allocLatency time.Duration

	mu      sync.Mutex
	entries []entry
	rrNext  int
	waiters []*waiter
	closed  bool
	fault   *FaultPolicy

	// Time-slicing scheduler state (scheduler.go): the parked snapshot of
	// each preempted tenant, waiting for the owner's next operation to
	// restore it somewhere; per-owner quantum accounts; and the aging level
	// of the current head waiter.
	parked       map[string]*pim.Snapshot
	stats        map[string]*ownerStat
	schedStarved int

	// Registry-backed counters; the METRICS socket verb snapshots reg.
	reg          *obs.Registry
	cGranted     *obs.Counter
	cParked      *obs.Counter
	cTimedout    *obs.Counter
	cReleases    *obs.Counter
	cResets      *obs.Counter
	cQuarantines *obs.Counter
	cPreempt     *obs.Counter
	cRestores    *obs.Counter
	cSchedWait   *obs.Counter
	cMigrations  *obs.Counter
}

// RankManager is the allocation surface a device backend drives; *Manager
// implements it.
type RankManager interface {
	// Alloc reserves one rank for owner (blocking, FIFO).
	Alloc(owner string) (*pim.Rank, time.Duration, error)
	// Acquire pins owner's rank for one operation, restoring parked
	// preemption state if needed.
	Acquire(owner string, r *pim.Rank) (*pim.Rank, AcquireCost, error)
	// EndOp unpins a rank and charges elapsed runtime to its owner.
	EndOp(r *pim.Rank, elapsed time.Duration)
	// ReleaseOwned returns owner's rank (or discards its parked state).
	ReleaseOwned(owner string, r *pim.Rank) error
	// MigrateOwned consolidates owner's rank onto another rank.
	MigrateOwned(owner string, from *pim.Rank) (*pim.Rank, time.Duration, error)
	// Discard drops owner's parked snapshot without an allocation.
	Discard(owner string) bool
}

var _ RankManager = (*Manager)(nil)

// New builds a manager over the machine's ranks; all start NAAV.
func New(machine *pim.Machine, opts Options) *Manager {
	ranks := machine.Ranks()
	entries := make([]entry, len(ranks))
	for i, r := range ranks {
		entries[i] = entry{rank: r, state: StateNAAV}
	}
	reg := obs.NewRegistry()
	return &Manager{
		opts:         opts.withDefaults(),
		allocLatency: machine.Model().ManagerAllocLatency,
		entries:      entries,
		parked:       make(map[string]*pim.Snapshot),
		stats:        make(map[string]*ownerStat),
		reg:          reg,
		cGranted:     reg.Counter("manager.allocs.granted"),
		cParked:      reg.Counter("manager.allocs.parked"),
		cTimedout:    reg.Counter("manager.allocs.timedout"),
		cReleases:    reg.Counter("manager.releases"),
		cResets:      reg.Counter("manager.resets"),
		cQuarantines: reg.Counter("manager.quarantines"),
		cPreempt:     reg.Counter("manager.preemptions"),
		cRestores:    reg.Counter("manager.restores"),
		cSchedWait:   reg.Counter("manager.sched.wait"),
		cMigrations:  reg.Counter("manager.migrations"),
	}
}

// Metrics snapshots the manager's counters (the METRICS socket verb).
func (m *Manager) Metrics() map[string]int64 {
	return m.reg.Snapshot()
}

// SetFaultPolicy installs (or, with nil, removes) the fault-injection hooks.
func (m *Manager) SetFaultPolicy(p *FaultPolicy) {
	m.mu.Lock()
	m.fault = p
	m.mu.Unlock()
}

// Alloc reserves one rank for owner and reports the virtual latency of the
// allocation round trip: the manager's measured 36 ms when a NAAV (or
// reusable NANA) rank exists, extended by the reset time when a foreign NANA
// rank must be erased first.
//
// When every rank is busy the request joins a FIFO waiter queue and really
// blocks: it sleeps through up to Retries poll intervals (RetryTimeout,
// growing by Backoff after each attempt) waiting for a concurrent release,
// and is abandoned with ErrNoRanks only after the full budget. The returned
// latency charges exactly the poll intervals the requester slept — the
// manager has no timeline of its own, so the requesting VM charges it.
func (m *Manager) Alloc(owner string) (*pim.Rank, time.Duration, error) {
	rank, wait, ck, err := m.alloc(owner, allocHooks{})
	return rank, wait + ck, err
}

// alloc is the blocking allocation core. It reports the waiting/allocation
// latency and, separately, any absorbed checkpoint debt so callers that
// itemize costs (Acquire) can attribute the two on different trace lanes.
func (m *Manager) alloc(owner string, hooks allocHooks) (*pim.Rank, time.Duration, time.Duration, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, 0, 0, ErrClosed
	}
	var stall time.Duration
	if m.fault != nil && m.fault.AllocStall != nil {
		stall = m.fault.AllocStall(owner)
	}
	// Fast path only when nobody is queued: a request must not overtake
	// older waiters (FIFO fairness).
	if len(m.waiters) == 0 {
		if g, ok := m.tryGrantLocked(owner); ok {
			m.mu.Unlock()
			return g.rank, m.allocLatency + g.extra + stall, g.ck, nil
		}
	}
	w := &waiter{owner: owner, ready: make(chan grant, 1)}
	m.waiters = append(m.waiters, w)
	m.cParked.Inc()
	// A parked request is the scheduler's trigger: under SchedSlice a
	// resident tenant past its quantum is checkpointed off its rank so the
	// queue keeps moving even when nobody releases voluntarily.
	m.scheduleLocked()
	m.mu.Unlock()

	if hooks.park != nil {
		hooks.park()
	}
	unpark := func() {
		if hooks.unpark != nil {
			hooks.unpark()
		}
	}

	// The retry loop of Section 3.5: sleep a poll interval, wake, check for
	// a grant, back off, repeat. The grant is observed at the poll boundary,
	// so the full interval it arrived within is charged.
	waited := stall
	interval := m.opts.RetryTimeout
	timer := time.NewTimer(interval)
	defer timer.Stop()
	finish := func(g grant) (*pim.Rank, time.Duration, time.Duration, error) {
		unpark()
		if g.err != nil {
			return nil, waited, 0, g.err
		}
		return g.rank, waited + m.allocLatency + g.extra, g.ck, nil
	}
	for attempt := 1; ; attempt++ {
		select {
		case g := <-w.ready:
			waited += interval
			return finish(g)
		case <-timer.C:
			waited += interval
			// Each wake is a scheduling point: the pass ages the head
			// waiter, so a starved request eventually preempts a resident
			// tenant even when every owner is still under its quantum.
			m.mu.Lock()
			m.scheduleLocked()
			m.mu.Unlock()
			select {
			case g := <-w.ready:
				return finish(g)
			default:
			}
			if attempt >= m.opts.Retries {
				m.mu.Lock()
				removed := m.removeWaiterLocked(w)
				m.mu.Unlock()
				if removed {
					m.cTimedout.Inc()
					unpark()
					return nil, waited, 0, ErrNoRanks
				}
				// A grant raced with the abandonment; it was sent before
				// the waiter left the queue, so it is already buffered.
				return finish(<-w.ready)
			}
			interval = time.Duration(float64(interval) * m.opts.Backoff)
			timer.Reset(interval)
		}
	}
}

// tryGrantLocked applies the Fig. 5 allocation policy for owner: same-owner
// NANA reuse, then round-robin over NAAV ranks, then a foreign NANA rank
// paid for with a reset. Ranks the fault policy reports dead are quarantined
// and skipped.
func (m *Manager) tryGrantLocked(owner string) (grant, bool) {
	// 1. Prefer a NANA rank previously owned by the requester: no reset
	// needed, saving CPU cycles (Section 3.5). This also covers an owner
	// resuming onto the very rank it was preempted off.
	for i := range m.entries {
		e := &m.entries[i]
		if e.state == StateNANA && e.prevOwner == owner && m.usableLocked(e) {
			e.state = StateALLO
			e.owner = owner
			m.cGranted.Inc()
			return grant{rank: e.rank, ck: m.takeDebtLocked(e)}, true
		}
	}
	// 2. Round-robin over NAAV ranks.
	n := len(m.entries)
	for k := 0; k < n; k++ {
		i := (m.rrNext + k) % n
		e := &m.entries[i]
		if e.state == StateNAAV && m.usableLocked(e) {
			e.state = StateALLO
			e.owner = owner
			m.rrNext = (i + 1) % n
			m.cGranted.Inc()
			return grant{rank: e.rank, ck: m.takeDebtLocked(e)}, true
		}
	}
	// 3. Reset a foreign NANA rank; the requester waits out the memset.
	for i := range m.entries {
		e := &m.entries[i]
		if e.state == StateNANA && m.usableLocked(e) {
			if !m.resetLocked(e) {
				continue // reset failed: quarantined, keep looking
			}
			e.state = StateALLO
			e.owner = owner
			m.cGranted.Inc()
			return grant{rank: e.rank, extra: e.rank.ResetDuration(), ck: m.takeDebtLocked(e)}, true
		}
	}
	return grant{}, false
}

// takeDebtLocked transfers a rank's outstanding checkpoint debt (the copy
// that freed it during a preemption) to the caller, who charges it.
func (m *Manager) takeDebtLocked(e *entry) time.Duration {
	d := e.debt
	e.debt = 0
	return d
}

// grantWaitersLocked serves queued requests strictly in FIFO order for as
// long as the head waiter can be satisfied. Called whenever a rank may have
// become allocatable.
func (m *Manager) grantWaitersLocked() {
	for len(m.waiters) > 0 {
		w := m.waiters[0]
		g, ok := m.tryGrantLocked(w.owner)
		if !ok {
			return
		}
		m.waiters = m.waiters[1:]
		w.ready <- g
	}
}

func (m *Manager) removeWaiterLocked(w *waiter) bool {
	for i, q := range m.waiters {
		if q == w {
			m.waiters = append(m.waiters[:i], m.waiters[i+1:]...)
			return true
		}
	}
	return false
}

// usableLocked applies the rank-death fault check to a rank about to be
// handed out; a dead rank is quarantined and reported unusable.
func (m *Manager) usableLocked(e *entry) bool {
	if m.fault != nil && m.fault.RankDead != nil && m.fault.RankDead(e.rank.Index()) {
		m.quarantineLocked(e)
		return false
	}
	return true
}

// resetLocked erases a rank, honoring injected reset failures: a failed
// reset quarantines the rank and reports false.
func (m *Manager) resetLocked(e *entry) bool {
	if m.fault != nil && m.fault.FailReset != nil && m.fault.FailReset(e.rank.Index()) {
		m.quarantineLocked(e)
		return false
	}
	e.rank.Reset()
	m.cResets.Inc()
	return true
}

func (m *Manager) quarantineLocked(e *entry) {
	e.state = StateQUAR
	e.owner = ""
	e.prevOwner = ""
	e.pins = 0
	e.debt = 0 // the rank is out of service; nobody inherits its debt
	m.cQuarantines.Inc()
}

// release returns a rank to the manager whoever holds it; only
// ReleaseNative and resumeParked, which know the holder, call it. In the
// real system the VM does not call the manager: a dedicated observer thread
// notices the release through the rank's sysfs status file; this method is
// that observation. The rank becomes NANA until ProcessResets (the
// observer's background erase) or a same-owner reallocation — unless a
// request is waiting, in which case the head of the FIFO queue is served
// immediately. Releasing a quarantined rank is a no-op: the rank is already
// out of service.
func (m *Manager) release(r *pim.Rank) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.entryLocked(r)
	if e == nil {
		return fmt.Errorf("%w: unknown rank", ErrNotAllocated)
	}
	if e.state == StateQUAR {
		return nil
	}
	if e.state != StateALLO {
		return fmt.Errorf("%w: rank %d in %v", ErrNotAllocated, r.Index(), e.state)
	}
	m.releaseEntryLocked(e)
	return nil
}

// releaseEntryLocked moves an ALLO entry to NANA and serves the queue. The
// departing owner's slice account resets so its next residency starts a
// fresh quantum.
func (m *Manager) releaseEntryLocked(e *entry) {
	if st := m.stats[e.owner]; st != nil {
		st.slice = 0
	}
	e.state = StateNANA
	e.prevOwner = e.owner
	e.owner = ""
	e.pins = 0
	m.cReleases.Inc()
	m.grantWaitersLocked()
}

// entryLocked finds the table entry for a rank (nil for nil or unknown).
func (m *Manager) entryLocked(r *pim.Rank) *entry {
	if r == nil {
		return nil
	}
	for i := range m.entries {
		if m.entries[i].rank == r {
			return &m.entries[i]
		}
	}
	return nil
}

// ProcessResets performs the observer thread's background work: erase every
// NANA rank and mark it NAAV. It reports the virtual time the resets took
// (the ~597 ms/rank memset of Section 4.2); resets of distinct ranks run
// sequentially on the observer thread, so the durations add. Ranks whose
// reset fails (fault injection) are quarantined instead.
func (m *Manager) ProcessResets() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	var total time.Duration
	for i := range m.entries {
		e := &m.entries[i]
		if e.state == StateNANA {
			if !m.resetLocked(e) {
				continue
			}
			// The observer's thread absorbs any checkpoint debt left on
			// the rank: the preempted tenant never resumed here, so the
			// background erase pays for the copy too.
			total += e.rank.ResetDuration() + m.takeDebtLocked(e)
			e.state = StateNAAV
			e.prevOwner = ""
		}
	}
	m.grantWaitersLocked()
	m.scheduleLocked()
	return total
}

// RetryQuarantined re-tests every quarantined rank against the fault policy:
// a rank that is no longer dead and whose reset now succeeds returns to NAAV
// (graceful recovery). It reports how many ranks were revived. The observer
// calls this on every poll.
func (m *Manager) RetryQuarantined() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	revived := 0
	for i := range m.entries {
		e := &m.entries[i]
		if e.state != StateQUAR {
			continue
		}
		if m.fault != nil && m.fault.RankDead != nil && m.fault.RankDead(e.rank.Index()) {
			continue
		}
		if m.fault != nil && m.fault.FailReset != nil && m.fault.FailReset(e.rank.Index()) {
			continue
		}
		e.rank.Reset()
		m.cResets.Inc()
		e.state = StateNAAV
		revived++
	}
	if revived > 0 {
		m.grantWaitersLocked()
	}
	return revived
}

// Close shuts the allocation path down: pending waiters are woken with
// ErrClosed and future allocations fail fast. Idempotent. The daemon calls
// this before stopping its server so blocked requests unwind promptly.
func (m *Manager) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.closed = true
	for _, w := range m.waiters {
		w.ready <- grant{err: ErrClosed}
	}
	m.waiters = nil
	// Parked snapshots can never resume once allocation is closed.
	m.parked = make(map[string]*pim.Snapshot)
}

// AcquireNative reserves ranks covering nrDPUs for a host-native
// application. Native applications bypass the manager's socket protocol (the
// observer merely sees their usage), so no allocation latency applies and
// the FIFO queue is not consulted.
func (m *Manager) AcquireNative(nrDPUs int) ([]*pim.Rank, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var picked []*pim.Rank
	covered := 0
	for i := range m.entries {
		if covered >= nrDPUs {
			break
		}
		e := &m.entries[i]
		switch e.state {
		case StateNAAV:
			if !m.usableLocked(e) {
				continue
			}
		case StateNANA:
			if !m.usableLocked(e) || !m.resetLocked(e) {
				continue
			}
			// Native acquisitions bypass virtual-clock charging entirely,
			// so any checkpoint debt on the rank is dropped rather than
			// charged to a tenant that never sees a clock.
			e.debt = 0
		default:
			continue
		}
		e.state = StateALLO
		e.owner = nativeOwner
		picked = append(picked, e.rank)
		covered += e.rank.NumDPUs()
	}
	if covered < nrDPUs {
		// Roll back the partial acquisition.
		for _, r := range picked {
			for i := range m.entries {
				if m.entries[i].rank == r {
					m.entries[i].state = StateNAAV
					m.entries[i].owner = ""
				}
			}
		}
		m.grantWaitersLocked()
		return nil, fmt.Errorf("%w: want %d DPUs", ErrNoRanks, nrDPUs)
	}
	return picked, nil
}

// ReleaseNative returns a native application's rank (observed via sysfs,
// like a VM release).
func (m *Manager) ReleaseNative(r *pim.Rank) {
	// Errors here mean double release; native.RankPool has no error path
	// and the state machine is already consistent, so drop it.
	_ = m.release(r)
}

// RankByIndex looks a rank up by its machine index.
func (m *Manager) RankByIndex(idx int) (*pim.Rank, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.entries {
		if m.entries[i].rank.Index() == idx {
			return m.entries[i].rank, true
		}
	}
	return nil, false
}

// States snapshots the rank table for tests and the admin CLI.
func (m *Manager) States() []RankState {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]RankState, len(m.entries))
	for i := range m.entries {
		out[i] = m.entries[i].state
	}
	return out
}

// Owners snapshots the owner column of the rank table.
func (m *Manager) Owners() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, len(m.entries))
	for i := range m.entries {
		out[i] = m.entries[i].owner
	}
	return out
}

// Waiters reports how many allocation requests are parked in the FIFO queue.
func (m *Manager) Waiters() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.waiters)
}

// Quarantined lists the indexes of quarantined ranks.
func (m *Manager) Quarantined() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []int
	for i := range m.entries {
		if m.entries[i].state == StateQUAR {
			out = append(out, m.entries[i].rank.Index())
		}
	}
	return out
}

// Allocations reports how many allocations have been served.
func (m *Manager) Allocations() int64 { return m.cGranted.Load() }

// Resets reports how many rank resets have been performed.
func (m *Manager) Resets() int64 { return m.cResets.Load() }

// Faults reports how many rank faults (failed resets, rank deaths) the
// manager has absorbed by quarantining.
func (m *Manager) Faults() int64 { return m.cQuarantines.Load() }
