// Package bench is the evaluation harness: it regenerates every table and
// figure of the paper's Section 5 as textual rows (the same series the
// paper plots), running each experiment natively and under the selected
// vPIM variants on a freshly built machine so results are deterministic.
package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/manager"
	"repro/internal/native"
	"repro/internal/obs"
	"repro/internal/pim"
	"repro/internal/prim"
	"repro/internal/sdk"
	"repro/internal/trace"
	"repro/internal/upmem"
	"repro/internal/vmm"
)

// Config sizes the harness's machines and datasets.
type Config struct {
	// Ranks and DPUsPerRank shape the machine (paper: 8 ranks x 60 DPUs).
	Ranks       int
	DPUsPerRank int
	// MRAMBytes per DPU; 0 selects the hardware's 64 MB.
	MRAMBytes int64
	// ChecksumDivisor scales the checksum input sizes down from the
	// paper's 8-60 MB per DPU (1 = paper sizes). Larger values make the
	// harness faster on small hosts; relative trends are preserved.
	ChecksumDivisor int
	// Scale multiplies PrIM dataset sizes (1 = the scaled defaults).
	Scale int
	// Weak selects PrIM weak scaling (per-DPU share constant) instead of
	// the paper's strong scaling.
	Weak bool
}

func (c Config) withDefaults() Config {
	if c.Ranks == 0 {
		c.Ranks = 8
	}
	if c.DPUsPerRank == 0 {
		c.DPUsPerRank = 60
	}
	if c.ChecksumDivisor == 0 {
		c.ChecksumDivisor = 4
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	return c
}

// Harness runs experiments and writes rows to its writer.
type Harness struct {
	w   io.Writer
	cfg Config
}

// New builds a harness.
func New(w io.Writer, cfg Config) *Harness {
	return &Harness{w: w, cfg: cfg.withDefaults()}
}

// machine builds a fresh machine with all kernels registered, fronted by
// one manager.
func (h *Harness) machine() (*pim.Machine, *manager.Manager, error) {
	mach, err := pim.NewMachine(pim.MachineConfig{
		Ranks: h.cfg.Ranks,
		Rank:  pim.RankConfig{DPUs: h.cfg.DPUsPerRank, MRAMBytes: h.cfg.MRAMBytes},
	})
	if err != nil {
		return nil, nil, err
	}
	if err := prim.Register(mach.Registry()); err != nil {
		return nil, nil, err
	}
	if err := upmem.Register(mach.Registry()); err != nil {
		return nil, nil, err
	}
	return mach, manager.New(mach, manager.Options{}), nil
}

// Result captures one run's virtual-time measurements.
type Result struct {
	// Phases holds the four application segments of Fig. 8.
	Phases map[string]time.Duration
	// Ops holds the driver-centric categories of Fig. 12.
	Ops map[string]time.Duration
	// Steps holds the write-to-rank steps of Fig. 13.
	Steps map[string]time.Duration
	// Total is the summed application-phase time (the paper's execution
	// time metric; device allocation is outside it).
	Total time.Duration
	// Messages counts guest->VMM chains (0 native).
	Messages int64
	// Counters is the VM's obs registry snapshot with per-device tags
	// aggregated away (empty for native runs, which have no virtio path).
	Counters map[string]int64
}

func capture(env sdk.Env) Result {
	snap := env.Tracker().Snapshot()
	res := Result{
		Phases: make(map[string]time.Duration, 4),
		Ops:    make(map[string]time.Duration, 3),
		Steps:  make(map[string]time.Duration, 5),
	}
	for _, ph := range trace.Phases {
		res.Phases[ph] = snap[ph]
		res.Total += snap[ph]
	}
	for _, op := range trace.Ops {
		res.Ops[op] = snap[op]
	}
	for _, st := range trace.Steps {
		res.Steps[st] = snap[st]
	}
	return res
}

// RunNative executes fn in a fresh native environment.
func (h *Harness) RunNative(fn func(env sdk.Env) error) (Result, error) {
	mach, mgr, err := h.machine()
	if err != nil {
		return Result{}, err
	}
	env := native.NewEnv(mach, mgr, 16<<30)
	if err := fn(env); err != nil {
		return Result{}, err
	}
	return capture(env), nil
}

// RunVM executes fn in a fresh microVM with the given variant and vCPUs.
func (h *Harness) RunVM(opts vmm.Options, vcpus int, fn func(env sdk.Env) error) (Result, error) {
	mach, mgr, err := h.machine()
	if err != nil {
		return Result{}, err
	}
	vm, err := vmm.NewVM(mach, mgr, vmm.Config{
		Name:    "bench",
		VCPUs:   vcpus,
		VUPMEMs: h.cfg.Ranks,
		Options: opts,
	})
	if err != nil {
		return Result{}, err
	}
	if err := fn(vm); err != nil {
		return Result{}, err
	}
	res := capture(vm)
	res.Counters = obs.Aggregate(vm.Metrics())
	res.Messages = res.Counters["frontend.messages"]
	return res, nil
}

// counterCols renders a result's counter snapshot as sorted name=value
// pairs, printed next to each figure's numbers.
func counterCols(r Result) string {
	return obs.FormatSnapshot(r.Counters)
}

// TraceExport runs one PrIM workload on the fully-optimized vPIM variant
// with span recording enabled and writes the Chrome trace-event JSON to w.
// The export is deterministic: identical configurations produce
// byte-identical files (the CI determinism smoke diff relies on this).
func (h *Harness) TraceExport(w io.Writer, appName string) error {
	if appName == "" {
		appName = "VA"
	}
	app, err := prim.Lookup(appName)
	if err != nil {
		return err
	}
	mach, mgr, err := h.machine()
	if err != nil {
		return err
	}
	vm, err := vmm.NewVM(mach, mgr, vmm.Config{
		Name:    "bench",
		VCPUs:   16,
		VUPMEMs: h.cfg.Ranks,
		Options: vmm.Full(),
	})
	if err != nil {
		return err
	}
	vm.EnableTracing()
	p := prim.Params{DPUs: h.cfg.DPUsPerRank, Scale: h.cfg.Scale, Weak: h.cfg.Weak}
	if err := app.Run(vm, p); err != nil {
		return fmt.Errorf("trace %s: %w", appName, err)
	}
	_, err = w.Write(vm.TraceJSON())
	return err
}

func (h *Harness) printf(format string, args ...any) {
	fmt.Fprintf(h.w, format, args...)
}

// ms formats a non-negative duration as milliseconds to the nanosecond, in
// integer arithmetic, so that every row pins its virtual time exactly.
func ms(d time.Duration) string {
	return fmt.Sprintf("%d.%06d", d/time.Millisecond, d%time.Millisecond)
}

// ratio formats a/b as an overhead factor.
func ratio(a, b time.Duration) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2fx", float64(a)/float64(b))
}
