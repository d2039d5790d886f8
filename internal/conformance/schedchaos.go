// Seeded chaos for the preemptive rank scheduler: a single-goroutine,
// fully deterministic torture of manager.Acquire / EndOp / ReleaseOwned /
// MigrateOwned with five owners time-sharing two ranks while rank deaths,
// failed resets, failed checkpoints and failed restores fire from seeded
// fuses. Because every manager interaction happens on the driving
// goroutine, grants are only ever produced by that goroutine's own
// scheduling passes, so poll counts, fuse consumption and therefore the
// entire outcome are functions of the seed alone: replaying a seed must
// reproduce the outcome bit-for-bit.
//
// The harness verifies the scheduler's data contract at every step — a
// tenant's byte survives any number of preemptions, restores and
// migrations — and the convergence contract at the end: with faults
// disabled, every owner drains cleanly, leaving no ALLO rank, no parked
// snapshot and no waiter.
package conformance

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/manager"
	"repro/internal/obs"
	"repro/internal/pim"
)

// SchedOutcome is the deterministic fingerprint of one scheduler chaos run.
type SchedOutcome struct {
	Seed    int64
	Log     []string
	Manager map[string]int64
	Sched   []manager.OwnerSched
}

const (
	schedChaosOwners = 5
	schedChaosRanks  = 2
	schedChaosSteps  = 140
	// schedOpCost is the virtual runtime charged per chaos operation; at
	// 3 ms against a 4 ms quantum, owners cross the preemption threshold
	// on their second operation.
	schedOpCost = 3 * time.Millisecond
)

// schedPlan is the compiled fault plan; fuses advance only with manager
// activity on the driving goroutine.
type schedPlan struct {
	disabled bool

	rankDead  map[int]*fuse
	failReset *fuse
	failCkpt  *fuse
	failRest  *fuse
}

// compileSchedPlan draws the plan; every draw is unconditional so the rand
// stream depends only on the seed.
func compileSchedPlan(rng *rand.Rand) *schedPlan {
	p := &schedPlan{rankDead: make(map[int]*fuse)}
	for r := 0; r < schedChaosRanks; r++ {
		after, hold := 15+rng.Intn(80), 1+rng.Intn(2)
		if rng.Intn(2) == 1 {
			p.rankDead[r] = &fuse{after: after, hold: hold}
		}
	}
	after, hold := rng.Intn(8), 1+rng.Intn(2)
	if rng.Intn(2) == 1 {
		p.failReset = &fuse{after: after, hold: hold}
	}
	after, hold = rng.Intn(10), 1+rng.Intn(2)
	if rng.Intn(2) == 1 {
		p.failCkpt = &fuse{after: after, hold: hold}
	}
	after, hold = rng.Intn(10), 1+rng.Intn(2)
	if rng.Intn(2) == 1 {
		p.failRest = &fuse{after: after, hold: hold}
	}
	return p
}

func (p *schedPlan) policy() *manager.FaultPolicy {
	return &manager.FaultPolicy{
		RankDead:       func(rank int) bool { return !p.disabled && p.rankDead[rank].trip() },
		FailReset:      func(rank int) bool { return !p.disabled && p.failReset.trip() },
		FailCheckpoint: func(rank int) bool { return !p.disabled && p.failCkpt.trip() },
		FailRestore:    func(rank int) bool { return !p.disabled && p.failRest.trip() },
	}
}

// errClass folds an error into a stable label for the deterministic log.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, manager.ErrRankFaulted):
		return "faulted"
	case errors.Is(err, manager.ErrNoRanks):
		return "noranks"
	case errors.Is(err, manager.ErrNotAllocated):
		return "notalloc"
	case errors.Is(err, manager.ErrRankBusy):
		return "busy"
	default:
		return "error"
	}
}

// schedOwner is one tenant's view of its rank and the last byte it wrote.
type schedOwner struct {
	rank *pim.Rank
	has  bool
	seq  byte
}

// RunSchedChaos executes the scheduler fault plan for seed and returns the
// deterministic outcome. Contract violations (a changed byte, a failed
// convergence) are returned as errors embedding the seed for replay.
func RunSchedChaos(seed int64) (*SchedOutcome, error) {
	rng := rand.New(rand.NewSource(seed))
	plan := compileSchedPlan(rng)
	mach, err := pim.NewMachine(pim.MachineConfig{
		Ranks: schedChaosRanks,
		Rank:  pim.RankConfig{DPUs: 4, MRAMBytes: 1 << 20},
	})
	if err != nil {
		return nil, err
	}
	mgr := manager.New(mach, manager.Options{
		SchedPolicy:  manager.SchedSlice,
		Quantum:      4 * time.Millisecond,
		Retries:      4,
		RetryTimeout: time.Millisecond,
		Backoff:      1,
	})
	mgr.SetFaultPolicy(plan.policy())

	out := &SchedOutcome{Seed: seed}
	logf := func(format string, args ...any) {
		out.Log = append(out.Log, fmt.Sprintf(format, args...))
	}
	owners := make([]schedOwner, schedChaosOwners)
	name := func(o int) string { return fmt.Sprintf("chaos%d", o) }

	// verify reads the owner's byte back and checks it survived whatever
	// preemptions, restores and migrations happened since the write.
	verify := func(o int, r *pim.Rank) error {
		st := &owners[o]
		if !st.has {
			return nil
		}
		var b [1]byte
		if err := r.ReadDPU(0, 0, b[:]); err != nil {
			return fmt.Errorf("sched chaos seed %d: owner %d readback: %v", seed, o, err)
		}
		if b[0] != st.seq {
			return fmt.Errorf("sched chaos seed %d: owner %d byte changed across scheduling: %#02x != %#02x (preemption moved bytes)",
				seed, o, b[0], st.seq)
		}
		return nil
	}
	write := func(o int, r *pim.Rank) error {
		st := &owners[o]
		st.seq++
		if err := r.WriteDPU(0, 0, []byte{st.seq}); err != nil {
			return fmt.Errorf("sched chaos seed %d: owner %d write: %v", seed, o, err)
		}
		st.has = true
		return nil
	}

	prev := mgr.Metrics()
	for step := 0; step < schedChaosSteps; step++ {
		o := rng.Intn(schedChaosOwners)
		st := &owners[o]
		switch act := rng.Intn(10); {
		case act < 6: // one operation: acquire (or alloc), verify, write, end
			if st.rank == nil {
				r, _, err := mgr.Alloc(name(o))
				logf("step=%d owner=%d alloc %s", step, o, errClass(err))
				if err != nil {
					continue
				}
				st.rank = r
				if err := write(o, r); err != nil {
					return nil, err
				}
				mgr.EndOp(r, schedOpCost)
				continue
			}
			r, _, err := mgr.Acquire(name(o), st.rank)
			logf("step=%d owner=%d acquire %s", step, o, errClass(err))
			if err != nil {
				if errors.Is(err, manager.ErrRankFaulted) {
					// The rank died with our bytes on it (or the parked
					// snapshot was lost to the fault): state is gone.
					st.rank, st.has, st.seq = nil, false, 0
				}
				continue
			}
			st.rank = r
			if err := verify(o, r); err != nil {
				return nil, err
			}
			if err := write(o, r); err != nil {
				return nil, err
			}
			mgr.EndOp(r, schedOpCost)
		case act < 8: // release
			if st.rank == nil {
				continue
			}
			err := mgr.ReleaseOwned(name(o), st.rank)
			logf("step=%d owner=%d release %s", step, o, errClass(err))
			st.rank, st.has, st.seq = nil, false, 0
		case act < 9: // migrate
			if st.rank == nil {
				continue
			}
			dst, _, err := mgr.MigrateOwned(name(o), st.rank)
			logf("step=%d owner=%d migrate %s", step, o, errClass(err))
			if err == nil {
				st.rank = dst
			}
		default: // observer tick
			mgr.ProcessResets()
			revived := mgr.RetryQuarantined()
			logf("step=%d observer revived=%d", step, revived)
		}
		cur := mgr.Metrics()
		if err := obs.CheckMonotonic(prev, cur); err != nil {
			return nil, fmt.Errorf("sched chaos seed %d step %d: %w", seed, step, err)
		}
		prev = cur
	}

	// Convergence: faults off, every owner drains. A drain may need the
	// observer to revive quarantined ranks before a resume can land.
	plan.disabled = true
	for o := range owners {
		st := &owners[o]
		if st.rank == nil {
			continue
		}
		drained := false
		for attempt := 0; attempt < 4 && !drained; attempt++ {
			r, _, err := mgr.Acquire(name(o), st.rank)
			switch {
			case err == nil:
				if verr := verify(o, r); verr != nil {
					return nil, verr
				}
				mgr.EndOp(r, 0)
				if rerr := mgr.ReleaseOwned(name(o), r); rerr != nil {
					return nil, fmt.Errorf("sched chaos seed %d: drain owner %d release: %v", seed, o, rerr)
				}
				drained = true
			case errors.Is(err, manager.ErrRankFaulted):
				drained = true // state died with its rank; nothing to free
			default:
				mgr.ProcessResets()
				mgr.RetryQuarantined()
			}
		}
		if !drained {
			return nil, fmt.Errorf("sched chaos seed %d: owner %d could not drain (permanently parked)", seed, o)
		}
		st.rank = nil
	}
	mgr.ProcessResets()
	mgr.RetryQuarantined()
	mgr.ProcessResets()
	if err := converged(mgr); err != nil {
		return nil, fmt.Errorf("sched chaos seed %d after drain: %w", seed, err)
	}

	out.Manager = mgr.Metrics()
	out.Sched = mgr.Sched()
	return out, nil
}
