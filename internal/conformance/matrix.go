// Config-matrix runner: every PrIM application through every interesting
// vmm.Options point, asserting bit-exact output agreement with the native
// reference plus the counter and virtual-clock invariants of invariants.go.
package conformance

import (
	"fmt"
	"time"

	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/prim"
	"repro/internal/vmm"
)

// Config is one point of the conformance matrix.
type Config struct {
	// Name labels the configuration in failure messages.
	Name string
	// Native runs on the host with direct rank mapping (the reference).
	Native bool
	// Opts is the VM variant (ignored for native).
	Opts vmm.Options
	// Trace enables span recording and the span/tracker reconciliation
	// invariant for this configuration.
	Trace bool
	// Oversub boots a second "blocker" VM that holds one of the two
	// physical ranks for the whole run, forcing this VM's second vUPMEM
	// device onto a software-simulated rank (multi-VM oversubscription).
	Oversub bool
	// TimeSlice runs the oversubscribed time-slicing scenario instead: two
	// resident VMs occupy every physical rank, the manager's preemptive
	// scheduler evicts them to admit this VM, and their checkpointed bytes
	// must survive the park/restore round trip (timeslice.go).
	TimeSlice bool
}

// Configs returns the conformance matrix: the native reference plus every
// interesting vmm.Options point — all Table 2 variants, both copy engines
// under full optimization, parallel on/off, vhost, and multi-VM
// oversubscription.
func Configs() []Config {
	return []Config{
		{Name: "native", Native: true},
		{Name: "vPIM-rust", Opts: vmm.Naive()},
		{Name: "vPIM-C", Opts: vmm.Options{Engine: cost.EngineC}},
		{Name: "vPIM+P", Opts: vmm.Options{Engine: cost.EngineC, Prefetch: true}},
		{Name: "vPIM+B", Opts: vmm.Options{Engine: cost.EngineC, Batch: true}},
		{Name: "vPIM+PB", Opts: vmm.Options{Engine: cost.EngineC, Prefetch: true, Batch: true}},
		{Name: "vPIM", Opts: vmm.Full(), Trace: true},
		{Name: "vPIM-vhost", Opts: vmm.Options{Engine: cost.EngineC, Prefetch: true, Batch: true, Parallel: true, VhostVsock: true}},
		{Name: "vPIM-rust-full", Opts: vmm.Options{Engine: cost.EngineRust, Prefetch: true, Batch: true, Parallel: true}},
		{Name: "vPIM-oversub", Opts: vmm.Options{Engine: cost.EngineC, Prefetch: true, Batch: true, Parallel: true, Oversubscribe: true}, Oversub: true},
		{Name: "vPIM-sched", Opts: vmm.Full(), TimeSlice: true},
		// Pipelined submission window: the full variant plus event-idx-style
		// notification suppression and IRQ coalescing, traced so the span
		// reconciliation invariant also covers the staged guest path; and the
		// same window layered on the bare C engine, where only symbol writes
		// stage and small writes stay synchronous.
		{Name: "vPIM-pipe", Opts: pipelineOpts(vmm.Full()), Trace: true},
		{Name: "vPIM-pipe-nobatch", Opts: pipelineOpts(vmm.Options{Engine: cost.EngineC})},
		// Broadcast deduplication: writes sharing one backing buffer collapse
		// to a single wire row whose header mask names the targets. The
		// digest must stay bit-exact, the collapsed/rows_saved/fanout counter
		// identity must hold, and RunMatrix asserts the clock never exceeds
		// the full variant's (deduplication only removes host-side charges).
		{Name: "vPIM-bcast", Opts: bcastOpts(vmm.Full()), Trace: true},
	}
}

// bcastOpts returns opts with broadcast deduplication enabled.
func bcastOpts(opts vmm.Options) vmm.Options {
	opts.Bcast = true
	return opts
}

// pipelineOpts returns opts with the submission pipeline enabled.
func pipelineOpts(opts vmm.Options) vmm.Options {
	opts.Pipeline = true
	return opts
}

// runResult captures one (application, configuration) cell.
type runResult struct {
	digest   Digest
	total    time.Duration // virtual clock at completion
	counters map[string]int64
	native   NativeRun // the native cell only
}

// runConfig executes app under cfg on a fresh machine.
func runConfig(cfg Config, app prim.App) (runResult, error) {
	if cfg.Native {
		ref, err := nativeReference(app)
		return runResult{digest: ref.Digest, native: ref}, err
	}
	if cfg.TimeSlice {
		return runTimeSliceCell(app)
	}
	mach, mgr, err := newMachine()
	if err != nil {
		return runResult{}, err
	}
	if cfg.Oversub {
		// The blocker VM books one rank for the whole run; it is never
		// released, so the test VM's second device must fall back to a
		// simulated rank.
		blocker, err := vmm.NewVM(mach, mgr, vmm.Config{
			Name: "blocker", VCPUs: 2, VUPMEMs: 1, Options: vmm.Naive(),
		})
		if err != nil {
			return runResult{}, fmt.Errorf("boot blocker: %w", err)
		}
		if _, err := blocker.AllocSet(confDPUs); err != nil {
			return runResult{}, fmt.Errorf("blocker booking: %w", err)
		}
	}
	vm, err := vmm.NewVM(mach, mgr, vmm.Config{
		Name:    "conf",
		VCPUs:   16,
		VUPMEMs: confRanks,
		Options: cfg.Opts,
	})
	if err != nil {
		return runResult{}, err
	}
	if cfg.Trace {
		vm.EnableTracing()
	}
	dg, err := RunApp(vm, app, params())
	if err != nil {
		return runResult{}, err
	}
	res := runResult{
		digest:   dg,
		total:    vm.Timeline().Now(),
		counters: obs.Aggregate(vm.Metrics()),
	}
	if err := CheckCounters(res.counters, cfg.Opts); err != nil {
		return runResult{}, err
	}
	if cfg.Trace {
		if err := CheckSpanReconciliation(vm); err != nil {
			return runResult{}, err
		}
	}
	return res, nil
}

// RunMatrix runs each application through every configuration, asserting
// that all digests agree with the native reference and that the parallel
// event loop never makes the virtual clock slower than its sequential
// twin. It returns each application's native reference run. The report
// callback (optional) receives one line per cell.
func RunMatrix(apps []prim.App, report func(format string, args ...any)) ([]NativeRun, error) {
	if report == nil {
		report = func(string, ...any) {}
	}
	cfgs := Configs()
	refs := make([]NativeRun, 0, len(apps))
	for _, app := range apps {
		var ref Digest
		totals := make(map[string]time.Duration, len(cfgs))
		for i, cfg := range cfgs {
			res, err := runConfig(cfg, app)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", app.Name, cfg.Name, err)
			}
			if i == 0 {
				ref = res.digest
				refs = append(refs, res.native)
			} else if res.digest != ref {
				return nil, fmt.Errorf("%s/%s: digest %v disagrees with native reference %v",
					app.Name, cfg.Name, res.digest, ref)
			}
			totals[cfg.Name] = res.total
			report("conformance %-8s %-14s digest=%v clock=%v\n", app.Name, cfg.Name, res.digest, res.total)
		}
		// Parallel operation handling must never cost virtual time over the
		// sequential event loop on a multi-rank machine: vPIM is vPIM+PB
		// plus Parallel, everything else equal.
		if par, seq := totals["vPIM"], totals["vPIM+PB"]; par > seq {
			return nil, fmt.Errorf("%s: parallel clock %v exceeds sequential clock %v", app.Name, par, seq)
		}
		// Suppressed notifications and coalesced IRQs cost no virtual time,
		// so pipelining the full variant can only remove exit/IRQ charges.
		if pipe, sync := totals["vPIM-pipe"], totals["vPIM"]; pipe > sync {
			return nil, fmt.Errorf("%s: pipelined clock %v exceeds synchronous clock %v", app.Name, pipe, sync)
		}
		// Broadcast deduplication only removes page-management, serialization
		// and translation charges; rank-side byte movement is unchanged, so
		// the collapsed variant can never be slower than the full one.
		if bc, sync := totals["vPIM-bcast"], totals["vPIM"]; bc > sync {
			return nil, fmt.Errorf("%s: broadcast clock %v exceeds synchronous clock %v", app.Name, bc, sync)
		}
	}
	return refs, nil
}
