// Preemptive time-slicing over physical ranks: the piece that turns the
// manager from admission control into multi-tenant serving. The paper's
// conclusion proposes dynamic workload consolidation via checkpoint/restore
// between launches (UPMEM cannot pause a running kernel); this file builds
// the policy on top of that mechanism.
//
// Under Options.SchedPolicy == SchedSlice, an allocation that finds every
// rank busy no longer just waits for a voluntary release. Each scheduling
// point (request enqueue, every poll wake of a waiter, operation end, the
// observer's reset pass) runs one pass: if waiters exist and no rank is
// grantable, the pass picks the ALLO rank whose owner has consumed the most
// virtual runtime in its current slice — weighted round-robin — checkpoints
// it, parks the snapshot keyed by owner, and hands the rank to the head of
// the FIFO queue. A tenant under its quantum is protected, but only for a
// bounded number of passes (aging): after agingPasses consecutive deferrals
// the head waiter preempts anyway, so no owner starves behind a tenant that
// never exhausts its quantum.
//
// A preempted tenant resumes through Acquire: its next operation finds the
// snapshot parked, allocates a rank through the normal blocking path (which
// may itself preempt someone else) and restores the snapshot onto it.
// Operations in flight pin their rank; the scheduler never checkpoints a
// rank mid-operation, so preemption may only move time, never bytes.
package manager

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/pim"
)

// SchedPolicy selects how the manager arbitrates ranks when demand exceeds
// supply.
type SchedPolicy int

const (
	// SchedNone parks oversubscribed requests in the FIFO queue until a
	// tenant voluntarily releases a rank (the original behavior).
	SchedNone SchedPolicy = iota
	// SchedSlice preemptively time-slices ranks between owners using
	// checkpoint/restore, weighted round-robin with aging.
	SchedSlice
)

// String implements fmt.Stringer.
func (p SchedPolicy) String() string {
	switch p {
	case SchedNone:
		return "none"
	case SchedSlice:
		return "slice"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// agingPasses bounds starvation: after this many scheduling passes in which
// the head waiter found no quantum-expired victim, the longest-running
// tenant is preempted regardless of remaining quantum.
const agingPasses = 2

// nativeOwner marks ranks acquired by host-native applications; they bypass
// the socket protocol and are never preempted.
const nativeOwner = "native"

// ownerStat is one owner's scheduling account on the virtual clock.
type ownerStat struct {
	slice       time.Duration // runtime accumulated in the current residency
	total       time.Duration // lifetime runtime
	preemptions int64
	restores    int64
}

// AcquireCost itemizes the virtual cost of an Acquire so callers can charge
// the phases to distinct trace lanes.
type AcquireCost struct {
	// Wait is allocation latency: queue time plus the manager round trip
	// (and any reset the grant paid for).
	Wait time.Duration
	// Checkpoint is inherited checkpoint debt: the copy that pushed a
	// previous tenant off the granted rank.
	Checkpoint time.Duration
	// Restore is the snapshot copy bringing this owner's parked state onto
	// the granted rank.
	Restore time.Duration
}

// Total sums the phases.
func (c AcquireCost) Total() time.Duration { return c.Wait + c.Checkpoint + c.Restore }

// OwnerSched is one row of Manager.Sched: an owner's residency and
// preemption statistics.
type OwnerSched struct {
	Owner       string
	RuntimeNS   int64 // lifetime virtual runtime
	SliceNS     int64 // runtime in the current residency
	Preemptions int64
	Restores    int64
	Parked      bool // a snapshot is parked, awaiting a rank
	Rank        int  // resident rank index, -1 when none
}

// statLocked returns (allocating on demand) owner's scheduling account.
func (m *Manager) statLocked(owner string) *ownerStat {
	st := m.stats[owner]
	if st == nil {
		st = &ownerStat{}
		m.stats[owner] = st
	}
	return st
}

// scheduleLocked runs one scheduling pass. No-op unless SchedSlice.
func (m *Manager) scheduleLocked() {
	if m.opts.SchedPolicy != SchedSlice || m.closed {
		return
	}
	for len(m.waiters) > 0 {
		// A rank may have become grantable since the last pass; the queue
		// is always served before anyone is preempted.
		m.grantWaitersLocked()
		if len(m.waiters) == 0 {
			return
		}
		victim := m.pickVictimLocked(m.waiters[0].owner)
		if victim == nil {
			// Every resident is protected (pinned, under quantum, native,
			// or mid-resume): the head waiter keeps waiting this pass.
			m.cSchedWait.Inc()
			return
		}
		before := len(m.waiters)
		if !m.preemptLocked(victim) || len(m.waiters) >= before {
			return
		}
	}
}

// pickVictimLocked selects the preemption victim for the head waiter: the
// eligible ALLO rank whose owner has the longest current slice. Returns nil
// when no candidate exists or the best candidate is still under its quantum
// and the waiter has not aged past the starvation bound.
func (m *Manager) pickVictimLocked(reqOwner string) *entry {
	var best *entry
	bestRun := time.Duration(-1)
	for i := range m.entries {
		e := &m.entries[i]
		if e.state != StateALLO || e.pins > 0 || e.owner == "" ||
			e.owner == reqOwner || e.owner == nativeOwner {
			continue
		}
		if m.parked[e.owner] != nil {
			// The owner is mid-resume onto this rank: its parked snapshot
			// must not be clobbered by a second checkpoint of a blank rank.
			continue
		}
		run := time.Duration(0)
		if st := m.stats[e.owner]; st != nil {
			run = st.slice
		}
		if run > bestRun {
			best, bestRun = e, run
		}
	}
	if best == nil {
		return nil
	}
	if bestRun >= m.opts.Quantum || m.schedStarved >= agingPasses {
		return best
	}
	m.schedStarved++
	return nil
}

// preemptLocked checkpoints e's tenant, parks the snapshot, and re-offers
// the rank to the queue. Reports whether the preemption happened.
func (m *Manager) preemptLocked(e *entry) bool {
	snap, ckDur, err := m.checkpointLocked(e)
	if err != nil {
		// Injected fault, or busy (a launch mid-flight on the host side):
		// treat like a pinned rank and let a later pass retry.
		return false
	}
	owner := e.owner
	m.parked[owner] = snap
	st := m.statLocked(owner)
	st.slice = 0
	st.preemptions++
	m.cPreempt.Inc()
	m.schedStarved = 0
	// The rank goes NANA, not NAAV: a foreign grant still pays the reset
	// (requirement R2 — no bytes leak between tenants), while the departed
	// owner itself may take the rank back reset-free and restore over it.
	e.state = StateNANA
	e.prevOwner = owner
	e.owner = ""
	e.debt += ckDur
	m.grantWaitersLocked()
	return true
}

// Acquire pins owner's rank for one operation. Three cases:
//
//   - r is still owner's ALLO rank: revalidate against the fault policy
//     (a dead rank is quarantined and reported as ErrRankFaulted), pin,
//     return it at zero cost.
//   - owner was preempted (snapshot parked): allocate a rank through the
//     normal blocking path — possibly preempting someone else — restore the
//     snapshot onto it, pin, and return the new rank with the itemized
//     wait/checkpoint/restore cost.
//   - neither: the rank died or was never allocated; ErrRankFaulted tells
//     the owner to fail over or re-attach.
//
// Every Acquire must be paired with EndOp on the returned rank; the rank is
// not preemptible in between. Calls for one owner must be serialized by
// that owner (the backend's virtqueue loop already is).
func (m *Manager) Acquire(owner string, r *pim.Rank) (*pim.Rank, AcquireCost, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, AcquireCost{}, ErrClosed
	}
	if e := m.entryLocked(r); e != nil && e.state == StateALLO && e.owner == owner {
		if m.fault != nil && m.fault.RankDead != nil && m.fault.RankDead(r.Index()) {
			m.quarantineLocked(e)
			m.mu.Unlock()
			return nil, AcquireCost{}, ErrRankFaulted
		}
		e.pins++
		m.mu.Unlock()
		return r, AcquireCost{}, nil
	}
	parked := m.parked[owner] != nil
	m.mu.Unlock()
	if !parked {
		return nil, AcquireCost{}, ErrRankFaulted
	}
	return m.resumeParked(owner)
}

// resumeParked brings a preempted owner back: allocate a rank, restore the
// parked snapshot onto it, pin it. A rank whose restore fails holds an
// unknown mix of tenant bytes and is quarantined; the resume then retries
// with a fresh allocation, bounded by the Retries budget. The snapshot
// stays parked until a restore succeeds (or the owner discards it), so a
// failed resume loses nothing.
func (m *Manager) resumeParked(owner string) (*pim.Rank, AcquireCost, error) {
	var cost AcquireCost
	attempts := m.opts.Retries
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		rank, wait, ck, err := m.alloc(owner, allocHooks{})
		cost.Wait += wait
		cost.Checkpoint += ck
		if err != nil {
			if errors.Is(err, ErrClosed) {
				return nil, cost, fmt.Errorf("resume %s: %w", owner, err)
			}
			// An exhausted allocation is transient here: the owner has
			// parked state, and under heavy contention a queued resume can
			// outlive one poll budget. Spend another attempt rather than
			// failing the tenant's operation.
			lastErr = err
			continue
		}
		m.mu.Lock()
		e := m.entryLocked(rank)
		snap := m.parked[owner]
		restoreFault := m.fault != nil && m.fault.FailRestore != nil && m.fault.FailRestore(rank.Index())
		m.mu.Unlock()
		if snap == nil {
			// The owner discarded its state while this resume was waiting
			// in the queue; return the freshly granted rank and give up.
			_ = m.release(rank)
			return nil, cost, fmt.Errorf("resume %s: %w", owner, ErrNotAllocated)
		}
		// The restore copy runs without the lock: the snapshot still parked
		// under this owner excludes the granted rank from victim selection,
		// so no concurrent pass can checkpoint it mid-restore.
		var rerr error
		var rsDur time.Duration
		if restoreFault {
			rerr = fmt.Errorf("injected restore fault on rank %d", rank.Index())
		} else {
			rsDur, rerr = rank.Restore(snap)
		}
		if rerr != nil {
			m.mu.Lock()
			if e != nil && e.state == StateALLO && e.owner == owner {
				m.quarantineLocked(e)
			}
			m.mu.Unlock()
			lastErr = rerr
			continue
		}
		cost.Restore += rsDur
		m.mu.Lock()
		delete(m.parked, owner)
		if e != nil {
			e.pins++
		}
		st := m.statLocked(owner)
		st.restores++
		m.cRestores.Inc()
		m.mu.Unlock()
		return rank, cost, nil
	}
	return nil, cost, fmt.Errorf("manager: restore for %s failed after %d attempts: %w", owner, attempts, lastErr)
}

// EndOp ends an operation pinned by Acquire: the rank becomes preemptible
// again and elapsed virtual time is charged against the owner's quantum. A
// scheduling pass runs when requests are waiting, making every operation
// boundary a potential preemption point. Unknown or already-released ranks
// are tolerated (the release zeroed the pin).
func (m *Manager) EndOp(r *pim.Rank, elapsed time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.entryLocked(r)
	if e == nil {
		return
	}
	if e.pins > 0 {
		e.pins--
	}
	if e.state == StateALLO && e.owner != "" && elapsed > 0 {
		st := m.statLocked(e.owner)
		st.slice += elapsed
		st.total += elapsed
	}
	if e.pins == 0 && len(m.waiters) > 0 {
		m.scheduleLocked()
	}
}

// ReleaseOwned returns owner's rank; it is the one release a tenant has, in
// process and over the socket, so nobody frees a rank it does not hold. It
// also resolves the race a rank-keyed release cannot: if the owner was
// preempted, its state lives in a parked snapshot and r may already belong
// to another tenant — the snapshot is discarded and r is left untouched. A
// quarantined rank releases as a no-op.
func (m *Manager) ReleaseOwned(owner string, r *pim.Rank) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.parked[owner] != nil {
		delete(m.parked, owner)
		if st := m.stats[owner]; st != nil {
			st.slice = 0
		}
		m.cReleases.Inc()
		return nil
	}
	e := m.entryLocked(r)
	if e == nil {
		return fmt.Errorf("%w: unknown rank (owner %s)", ErrNotAllocated, owner)
	}
	if e.state == StateQUAR {
		return nil
	}
	if e.state != StateALLO || e.owner != owner {
		return fmt.Errorf("%w: rank %d not held by %s", ErrNotAllocated, e.rank.Index(), owner)
	}
	m.releaseEntryLocked(e)
	return nil
}

// Discard drops owner's parked snapshot without an allocation (tenant
// teardown while preempted, or failover to a simulated rank). Reports
// whether a snapshot existed.
func (m *Manager) Discard(owner string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.parked[owner] == nil {
		return false
	}
	delete(m.parked, owner)
	if st := m.stats[owner]; st != nil {
		st.slice = 0
	}
	return true
}

// Sched snapshots per-owner residency and preemption statistics, sorted by
// owner. It is in-process only: the daemon does not time-slice (see
// Request).
func (m *Manager) Sched() []OwnerSched {
	m.mu.Lock()
	defer m.mu.Unlock()
	resident := make(map[string]int)
	for i := range m.entries {
		e := &m.entries[i]
		if e.state == StateALLO && e.owner != "" {
			resident[e.owner] = e.rank.Index()
		}
	}
	names := make(map[string]struct{})
	for o := range m.stats {
		names[o] = struct{}{}
	}
	for o := range m.parked {
		names[o] = struct{}{}
	}
	for o := range resident {
		names[o] = struct{}{}
	}
	out := make([]OwnerSched, 0, len(names))
	for o := range names {
		row := OwnerSched{Owner: o, Rank: -1}
		if st := m.stats[o]; st != nil {
			row.RuntimeNS = int64(st.total)
			row.SliceNS = int64(st.slice)
			row.Preemptions = st.preemptions
			row.Restores = st.restores
		}
		if _, ok := m.parked[o]; ok {
			row.Parked = true
		}
		if r, ok := resident[o]; ok {
			row.Rank = r
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Owner < out[j].Owner })
	return out
}

// Parked lists owners whose checkpointed state is awaiting a rank, sorted.
func (m *Manager) Parked() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.parked))
	for o := range m.parked {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

// Preemptions reports how many tenants the scheduler has checkpointed off
// their rank.
func (m *Manager) Preemptions() int64 { return m.cPreempt.Load() }

// SchedRestores reports how many parked tenants have been restored onto a
// rank.
func (m *Manager) SchedRestores() int64 { return m.cRestores.Load() }
