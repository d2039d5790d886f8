// Seeded chaos engine: a deterministic fault plan compiled from a single
// rand seed drives rank deaths, failed resets, allocation stalls, corrupted
// descriptor chains and backend translate/copy failures through full-stack
// PrIM runs. The harness asserts the stack's core robustness contract:
// every application either completes with output bit-identical to the
// fault-free reference, or fails cleanly — no rank left allocated after
// cleanup, no parked waiter, no counter moving backwards. Every failure
// message embeds the seed, so one seed value replays the exact run.
package conformance

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/backend"
	"repro/internal/hostmem"
	"repro/internal/manager"
	"repro/internal/obs"
	"repro/internal/prim"
	"repro/internal/virtio"
	"repro/internal/vmm"
)

// ChaosConfig parameterizes one chaos run.
type ChaosConfig struct {
	// Seed selects the fault plan; the same seed replays the same run.
	Seed int64
	// Apps restricts the application list (short names); empty selects the
	// fast subset below.
	Apps []string
	// Pipeline runs the chaos VM with the pipelined submission window, so
	// the fault plan's corrupted chains land mid-window and must fail alone
	// without wedging the drain.
	Pipeline bool
}

// chaosApps is the default workload: the fastest PrIM applications, so a
// chaos run exercises many allocation/transfer/launch cycles per second.
var chaosApps = []string{"RED", "SCAN-SSA", "SCAN-RSS", "SEL", "UNI", "TRNS"}

// AppOutcome records how one application fared under the fault plan.
type AppOutcome struct {
	App       string
	Completed bool
	// Err is the clean failure, empty when completed.
	Err string
	// Digest is the readback digest of a completed run (zero otherwise).
	Digest Digest
	// DetachErr records a tolerated cleanup-detach failure (a device
	// wedged by an earlier fault; the rank-leak invariant still holds).
	DetachErr string
}

// Outcome is the deterministic fingerprint of one chaos run: replaying the
// same seed must reproduce it exactly.
type Outcome struct {
	Seed     int64
	Apps     []AppOutcome
	Counters map[string]int64
	Manager  map[string]int64
	Clock    time.Duration
}

// fuse is a countdown fault trigger: inert for the first `after`
// consultations, then firing on the next `hold` consultations.
type fuse struct {
	after int
	hold  int
}

func (f *fuse) trip() bool {
	if f == nil {
		return false
	}
	if f.after > 0 {
		f.after--
		return false
	}
	if f.hold == 0 {
		return false
	}
	f.hold--
	return true
}

// chaosPlan is the compiled fault plan. All state is consulted and mutated
// on the single goroutine driving the run, so the countdowns advance
// deterministically with the stack's own activity (manager consultations,
// submitted chains, translated pages, copied rows).
type chaosPlan struct {
	disabled bool

	// mem is the chaos VM's guest RAM, set after boot; the metadata
	// corruption modes write malformed values into live row metadata.
	mem *hostmem.Memory

	rankDead  map[int]*fuse
	failReset *fuse
	failCkpt  *fuse
	failRest  *fuse

	stallEvery int
	stall      time.Duration
	allocs     int

	chainFuse *fuse
	chainMode int

	xlateFuse *fuse
	copyFuse  *fuse
}

// compilePlan derives the whole fault plan from the seeded source. Every
// draw is unconditional so the rand stream (and therefore the plan) depends
// only on the seed.
func compilePlan(rng *rand.Rand) *chaosPlan {
	p := &chaosPlan{rankDead: make(map[int]*fuse)}
	// A dead rank is consulted rarely once quarantined (one revival probe
	// per cleanup), so the death window stays short — long holds would
	// keep a rank out of service for most of the run.
	for r := 0; r < confRanks; r++ {
		after, hold := 10+rng.Intn(120), 1+rng.Intn(3)
		if rng.Intn(2) == 1 {
			p.rankDead[r] = &fuse{after: after, hold: hold}
		}
	}
	after, hold := rng.Intn(4), 1+rng.Intn(2)
	if rng.Intn(2) == 1 {
		p.failReset = &fuse{after: after, hold: hold}
	}
	// Checkpoint/restore faults hit the migration path and the preemptive
	// scheduler (a failed restore quarantines the target; a failed
	// checkpoint abandons the preemption).
	after, hold = rng.Intn(6), 1+rng.Intn(2)
	if rng.Intn(2) == 1 {
		p.failCkpt = &fuse{after: after, hold: hold}
	}
	after, hold = rng.Intn(6), 1+rng.Intn(2)
	if rng.Intn(2) == 1 {
		p.failRest = &fuse{after: after, hold: hold}
	}
	p.stallEvery = 1 + rng.Intn(4)
	p.stall = time.Duration(rng.Intn(2000)) * time.Microsecond
	after, hold = 20+rng.Intn(600), 1+rng.Intn(3)
	mode := rng.Intn(6)
	if rng.Intn(2) == 1 {
		p.chainFuse, p.chainMode = &fuse{after: after, hold: hold}, mode
	}
	after = rng.Intn(3000)
	if rng.Intn(2) == 1 {
		p.xlateFuse = &fuse{after: after, hold: 1}
	}
	after = rng.Intn(800)
	if rng.Intn(2) == 1 {
		p.copyFuse = &fuse{after: after, hold: 1}
	}
	return p
}

func (p *chaosPlan) managerPolicy() *manager.FaultPolicy {
	return &manager.FaultPolicy{
		RankDead: func(rank int) bool {
			return !p.disabled && p.rankDead[rank].trip()
		},
		FailReset: func(rank int) bool {
			return !p.disabled && p.failReset.trip()
		},
		FailCheckpoint: func(rank int) bool {
			return !p.disabled && p.failCkpt.trip()
		},
		FailRestore: func(rank int) bool {
			return !p.disabled && p.failRest.trip()
		},
		AllocStall: func(owner string) time.Duration {
			if p.disabled {
				return 0
			}
			p.allocs++
			if p.allocs%p.stallEvery == 0 {
				return p.stall
			}
			return 0
		},
	}
}

func (p *chaosPlan) backendPolicy() *backend.FaultPolicy {
	return &backend.FaultPolicy{
		FailTranslate: func(gpa uint64) bool {
			return !p.disabled && p.xlateFuse.trip()
		},
		FailCopy: func(dpu int) bool {
			return !p.disabled && p.copyFuse.trip()
		},
	}
}

// chainFault implements virtio.ChainFault: reject the chain, truncate its
// payload descriptors, corrupt the request header, or plant malformed row
// metadata (an out-of-page first offset, a huge page count) so the device
// decode rejects it. Every mode must surface as a clean device error.
func (p *chaosPlan) chainFault(queue string, chain *virtio.Chain) error {
	if p.disabled || !p.chainFuse.trip() {
		return nil
	}
	switch p.chainMode {
	case 0:
		return fmt.Errorf("chaos: injected transport failure on %s", queue)
	case 1:
		// Drop the payload descriptors, keeping header and status; the
		// device's chain-shape validation must reject the request.
		if len(chain.Descs) > 2 {
			chain.Descs = append(chain.Descs[:1:1], chain.Descs[len(chain.Descs)-1])
		}
		return nil
	case 2:
		// Point the header outside guest memory.
		chain.Descs[0].GPA = ^uint64(0) - 0x1000
		return nil
	case 3:
		// Truncate the header below the fixed request size.
		chain.Descs[0].Len = 4
		return nil
	case 4:
		// First-page offset past the page end: the historical panic in the
		// segment walk; the hardened deserialize must reject the row.
		p.corruptRowMeta(chain, 4, hostmem.PageSize+8)
		return nil
	default:
		// Page count far beyond the page buffer: the historical unchecked
		// allocation; deserialize must reject it before allocating.
		p.corruptRowMeta(chain, 3, uint64(1)<<40)
		return nil
	}
}

// corruptRowMeta overwrites one u64 word of the first row's metadata buffer
// of a transfer-matrix chain (header, matrix meta, then per-row metadata /
// page buffer pairs). Non-matrix chains are too short and pass untouched.
func (p *chaosPlan) corruptRowMeta(chain *virtio.Chain, word int, value uint64) {
	if p.mem == nil || len(chain.Descs) < 5 {
		return
	}
	dm := chain.Descs[2]
	buf, err := p.mem.Slice(dm.GPA, int(dm.Len))
	if err != nil || len(buf) < 8*virtio.DPUMetaWords {
		return
	}
	binary.LittleEndian.PutUint64(buf[8*word:], value)
}

// RunChaos executes the fault plan of cfg.Seed against a full-stack VM and
// returns the run's deterministic outcome. Any violation of the robustness
// contract is returned as an error embedding the seed for replay.
func RunChaos(cfg ChaosConfig) (*Outcome, error) {
	names := cfg.Apps
	if len(names) == 0 {
		names = chaosApps
	}
	apps := make([]prim.App, 0, len(names))
	refs := make(map[string]Digest, len(names))
	for _, n := range names {
		app, err := prim.Lookup(n)
		if err != nil {
			return nil, err
		}
		ref, err := nativeReference(app)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", n, err)
		}
		apps = append(apps, app)
		refs[n] = ref.Digest
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	plan := compilePlan(rng)
	mach, mgr, err := newMachine()
	if err != nil {
		return nil, err
	}
	opts := vmm.Full()
	opts.Pipeline = cfg.Pipeline
	vm, err := vmm.NewVM(mach, mgr, vmm.Config{
		Name: "chaos", VCPUs: 16, VUPMEMs: confRanks, Options: opts,
	})
	if err != nil {
		return nil, err
	}
	plan.mem = vm.Memory()
	mgr.SetFaultPolicy(plan.managerPolicy())
	vm.InjectChainFault(plan.chainFault)
	vm.InjectBackendFault(plan.backendPolicy())

	out := &Outcome{Seed: cfg.Seed}
	prevVM := obs.Aggregate(vm.Metrics())
	prevMgr := mgr.Metrics()
	for _, app := range apps {
		ao := AppOutcome{App: app.Name}
		dg, err := RunApp(vm, app, params())
		if err != nil {
			ao.Err = err.Error()
		} else {
			ao.Completed = true
			ao.Digest = dg
			if dg != refs[app.Name] {
				return nil, fmt.Errorf("chaos seed %d: %s completed with digest %v != fault-free reference %v (silent corruption)",
					cfg.Seed, app.Name, dg, refs[app.Name])
			}
		}

		// Counters must never move backwards, faults or not.
		curVM := obs.Aggregate(vm.Metrics())
		curMgr := mgr.Metrics()
		if err := obs.CheckMonotonic(prevVM, curVM); err != nil {
			return nil, fmt.Errorf("chaos seed %d after %s: %w", cfg.Seed, app.Name, err)
		}
		if err := obs.CheckMonotonic(prevMgr, curMgr); err != nil {
			return nil, fmt.Errorf("chaos seed %d after %s (manager): %w", cfg.Seed, app.Name, err)
		}
		prevVM, prevMgr = curVM, curMgr

		// Model the crashed tenant's teardown: with faults suspended, every
		// device detaches (a wedged device is tolerated and recorded), the
		// observer erases released ranks and retries quarantined ones, and
		// the manager must converge — no rank still allocated, no waiter
		// parked.
		if derr := quiesce(vm, mgr, plan); derr != nil {
			if ierr, ok := derr.(invariantError); ok {
				return nil, fmt.Errorf("chaos seed %d after %s: %w", cfg.Seed, app.Name, ierr.err)
			}
			ao.DetachErr = derr.Error()
		}
		out.Apps = append(out.Apps, ao)
	}

	out.Counters = obs.Aggregate(vm.Metrics())
	out.Manager = mgr.Metrics()
	out.Clock = vm.Timeline().Now()
	return out, nil
}

// invariantError marks a quiesce failure that violates the robustness
// contract (as opposed to a tolerated wedged-device detach error).
type invariantError struct{ err error }

func (e invariantError) Error() string { return e.err.Error() }

// quiesce suspends the fault plan, detaches every device and converges the
// manager. Detach failures are returned as plain errors (tolerated by the
// caller); leaked ranks and parked waiters are invariantErrors.
func quiesce(vm *vmm.VM, mgr *manager.Manager, plan *chaosPlan) error {
	plan.disabled = true
	defer func() { plan.disabled = false }()
	var detachErr error
	for _, f := range vm.Frontends() {
		if err := f.Detach(vm.Timeline()); err != nil && detachErr == nil {
			detachErr = fmt.Errorf("cleanup detach %s: %v", f.ID(), err)
		}
	}
	mgr.ProcessResets()
	mgr.RetryQuarantined()
	for i, st := range mgr.States() {
		if st == manager.StateALLO {
			return invariantError{fmt.Errorf("cleanup: rank %d still ALLO (leaked allocation)", i)}
		}
	}
	if n := mgr.Waiters(); n != 0 {
		return invariantError{fmt.Errorf("cleanup: %d waiters still parked", n)}
	}
	if parked := mgr.Parked(); len(parked) != 0 {
		return invariantError{fmt.Errorf("cleanup: snapshots still parked: %v", parked)}
	}
	return detachErr
}
