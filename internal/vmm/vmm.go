// Package vmm models the Firecracker virtual machine monitor hosting vPIM:
// VM configuration and boot, vUPMEM device realization (frontend + backend
// wired through transferq/controlq), and the guest execution environment
// applications run in.
package vmm

import (
	"fmt"
	"runtime"

	"repro/internal/backend"
	"repro/internal/cost"
	"repro/internal/driver"
	"repro/internal/hostmem"
	"repro/internal/kvm"
	"repro/internal/manager"
	"repro/internal/obs"
	"repro/internal/pim"
	"repro/internal/sdk"
	"repro/internal/simtime"
	"repro/internal/virtio"
)

// Options selects the vPIM implementation variant (Table 2). The zero value
// is the naive baseline; Full() is the shipping configuration.
type Options struct {
	// Engine selects the backend copy path (EngineRust = vPIM-rust,
	// EngineC = the C/AVX512 enhancement). Zero selects EngineC.
	Engine cost.Engine
	// Prefetch enables the frontend prefetch cache (+P).
	Prefetch bool
	// Batch enables frontend request batching (+B).
	Batch bool
	// Parallel enables parallel operation handling on multiple ranks.
	Parallel bool
	// Oversubscribe lets a vUPMEM device fall back to a software-simulated
	// rank at reduced performance when no physical rank is free — the
	// oversubscription mechanism sketched in the paper's conclusion.
	Oversubscribe bool
	// VhostVsock models the vhost-based fast path the paper names as
	// future work: requests short-circuit in the host kernel instead of
	// round-tripping through the VMM process, shrinking transition costs.
	VhostVsock bool
	// Pipeline deepens the submission window from one chain to
	// driver.DefaultPipelineDepth: the frontend keeps independent chains
	// (symbol writes and batch flushes) staged on the avail ring with
	// event-idx notification suppression and the backend answers a kicked
	// window with one coalesced IRQ, attacking the transition count itself
	// rather than the per-transition cost. Small writes stage only through
	// the batch buffer, so without Batch they stay synchronous.
	Pipeline bool
	// Bcast enables broadcast deduplication: a write-to-rank whose rows all
	// share one backing buffer travels as one wire row whose targets the
	// request header's DPU mask names, and the backend writes it to every
	// DPU in the mask.
	Bcast bool
	// Driver overrides optimization geometry (cache/batch sizes).
	Driver driver.Options
}

// Full returns the fully-optimized vPIM configuration (the "vPIM" line of
// every figure).
func Full() Options {
	return Options{Engine: cost.EngineC, Prefetch: true, Batch: true, Parallel: true}
}

// Naive returns the straightforward virtualization baseline (vPIM-rust in
// Table 2): Rust copy path, no prefetch cache, no batching, sequential
// event handling.
func Naive() Options {
	return Options{Engine: cost.EngineRust}
}

// Variant returns the Table 2 configuration by name: "vPIM-rust", "vPIM-C",
// "vPIM+P", "vPIM+B", "vPIM+PB", "vPIM-Seq", "vPIM".
func Variant(name string) (Options, error) {
	switch name {
	case "vPIM-rust":
		return Naive(), nil
	case "vPIM-C":
		return Options{Engine: cost.EngineC}, nil
	case "vPIM+P":
		return Options{Engine: cost.EngineC, Prefetch: true}, nil
	case "vPIM+B":
		return Options{Engine: cost.EngineC, Batch: true}, nil
	case "vPIM+PB", "vPIM-Seq":
		return Options{Engine: cost.EngineC, Prefetch: true, Batch: true}, nil
	case "vPIM":
		return Full(), nil
	case "vPIM-pipe":
		o := Full()
		o.Pipeline = true
		return o, nil
	case "vPIM-bcast":
		o := Full()
		o.Bcast = true
		return o, nil
	default:
		return Options{}, fmt.Errorf("vmm: unknown variant %q", name)
	}
}

// Variants lists the Table 2 configurations in order, plus the pipelined
// submission-window and broadcast-deduplication variants layered on the
// full configuration.
func Variants() []string {
	return []string{"vPIM-rust", "vPIM-C", "vPIM+P", "vPIM+B", "vPIM+PB", "vPIM-Seq", "vPIM", "vPIM-pipe", "vPIM-bcast"}
}

// Config describes one microVM.
type Config struct {
	// Name identifies the VM (manager owner strings derive from it).
	Name string
	// VCPUs is the guest CPU count (16 in the paper's default setup).
	VCPUs int
	// MemBytes is the guest RAM size.
	MemBytes int64
	// VUPMEMs is the number of vUPMEM devices (= max ranks usable).
	VUPMEMs int
	// Options selects the vPIM variant.
	Options Options
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "vm"
	}
	if c.VCPUs == 0 {
		c.VCPUs = 16
	}
	if c.MemBytes == 0 {
		c.MemBytes = 4 << 30
	}
	if c.VUPMEMs == 0 {
		c.VUPMEMs = 1
	}
	if c.Options.Engine == 0 {
		c.Options.Engine = cost.EngineC
	}
	return c
}

// VM is one booted Firecracker microVM with its vUPMEM devices. It
// implements sdk.Env, so applications run in it exactly as they run
// natively.
type VM struct {
	cfg     Config
	mach    *pim.Machine
	mgr     manager.RankManager
	mem     *hostmem.Memory
	path    *kvm.Path
	loop    *backend.EventLoop
	tl      *simtime.Timeline
	tracker *simtime.Tracker

	fronts []*driver.Frontend
	backs  []*backend.Backend
	tqs    []*virtio.Queue
	cqs    []*virtio.Queue

	reg *obs.Registry
	rec *obs.Recorder

	// chainFaulted/backendFaulted track injected fault hooks, which force
	// the rank fan-out back onto one goroutine so stateful chaos hooks are
	// consulted in a deterministic order.
	chainFaulted   bool
	backendFaulted bool

	bootTime simtime.Duration
}

var _ sdk.Env = (*VM)(nil)

// NewVM boots a microVM on the given machine: guest RAM, the KVM transition
// path, the event loop, and one frontend/backend pair per vUPMEM device.
// Each vUPMEM adds its (<=2 ms) boot-time overhead (Section 3.2).
func NewVM(mach *pim.Machine, mgr manager.RankManager, cfg Config) (*VM, error) {
	cfg = cfg.withDefaults()
	if cfg.MemBytes < 0 {
		return nil, fmt.Errorf("vmm: negative guest RAM size %d", cfg.MemBytes)
	}
	if cfg.VUPMEMs > mach.NumRanks() && !cfg.Options.Oversubscribe {
		return nil, fmt.Errorf("vmm: %d vUPMEM devices exceed %d physical ranks",
			cfg.VUPMEMs, mach.NumRanks())
	}
	model := mach.Model()
	if cfg.Options.VhostVsock {
		// vhost keeps the data path in the host kernel: no VMM userspace
		// wakeup on either direction.
		model.TrapToVMM /= 3
		model.EventDispatch /= 4
		model.IRQInject /= 3
	}
	tracker := simtime.NewTracker()
	tl := simtime.New()
	tl.Attach(tracker)
	// One registry and span recorder per VM: every layer of the virtio-pim
	// path pools its counters here, and the recorder mirrors every tracked
	// Span/Charge so trace exports reconcile with the tracker.
	reg := obs.NewRegistry()
	rec := obs.NewRecorder()
	tl.Observe(rec.ObserveSpan)

	vm := &VM{
		cfg:     cfg,
		mach:    mach,
		mgr:     mgr,
		mem:     hostmem.New(cfg.MemBytes),
		path:    kvm.NewPath(model),
		loop:    backend.NewEventLoop(cfg.Options.Parallel, model),
		tl:      tl,
		tracker: tracker,
		reg:     reg,
		rec:     rec,
	}
	vm.path.SetObs(reg)
	vm.mem.SetObs(reg)

	dopts := cfg.Options.Driver
	dopts.Prefetch = cfg.Options.Prefetch
	dopts.Batch = cfg.Options.Batch
	dopts.Pipeline = cfg.Options.Pipeline
	dopts.Bcast = cfg.Options.Bcast
	for i := 0; i < cfg.VUPMEMs; i++ {
		id := fmt.Sprintf("%s/vupmem%d", cfg.Name, i)
		tq := virtio.NewQueue("transferq", virtio.TransferQueueSize)
		cq := virtio.NewQueue("controlq", virtio.TransferQueueSize)
		tq.SetObs(reg, id)
		cq.SetObs(reg, id)
		back := backend.New(id, mach, mgr, vm.mem, cfg.Options.Engine, vm.loop)
		back.SetOversubscribe(cfg.Options.Oversubscribe)
		back.SetObs(reg, rec)
		tq.SetHandler(back.HandleWindow)
		cq.SetHandler(back.HandleControl)
		front := driver.New(id, vm.mem, vm.path, tq, cq, model, dopts)
		front.SetObs(reg, rec)
		vm.backs = append(vm.backs, back)
		vm.fronts = append(vm.fronts, front)
		vm.tqs = append(vm.tqs, tq)
		vm.cqs = append(vm.cqs, cq)
		tl.Advance(model.BootPerDevice)
	}
	vm.bootTime = tl.Now()
	vm.updateRealPar()
	return vm, nil
}

// updateRealPar decides whether the VM's Par sections (the multi-rank
// fan-out the Parallel event loop models) run on real goroutines. They do
// only when the process may run goroutines in parallel (GOMAXPROCS > 1)
// and every branch body is order-independent: span recording off (the
// trace is an ordered event stream) and no injected fault hooks (chaos
// fuses are stateful countdowns whose consultation order seeds replay on).
// Virtual time is identical either way; this gate only protects the
// determinism of traces and chaos outcomes.
func (vm *VM) updateRealPar() {
	vm.tl.SetRealPar(vm.cfg.Options.Parallel &&
		runtime.GOMAXPROCS(0) > 1 &&
		!vm.rec.Enabled() &&
		!vm.chainFaulted &&
		!vm.backendFaulted)
}

// Name reports the VM name.
func (vm *VM) Name() string { return vm.cfg.Name }

// VCPUs reports the guest CPU count.
func (vm *VM) VCPUs() int { return vm.cfg.VCPUs }

// BootTime reports the virtual boot duration including per-device overhead.
func (vm *VM) BootTime() simtime.Duration { return vm.bootTime }

// Options reports the VM's vPIM variant.
func (vm *VM) Options() Options { return vm.cfg.Options }

// Frontends exposes the vUPMEM guest drivers (for stats).
func (vm *VM) Frontends() []*driver.Frontend {
	out := make([]*driver.Frontend, len(vm.fronts))
	copy(out, vm.fronts)
	return out
}

// Backends exposes the device backends (for tests).
func (vm *VM) Backends() []*backend.Backend {
	out := make([]*backend.Backend, len(vm.backs))
	copy(out, vm.backs)
	return out
}

// KVM exposes the transition layer (for exit counting).
func (vm *VM) KVM() *kvm.Path { return vm.path }

// Registry exposes the VM's counter registry.
func (vm *VM) Registry() *obs.Registry { return vm.reg }

// Metrics snapshots every counter of the VM's virtio-pim path.
func (vm *VM) Metrics() map[string]int64 { return vm.reg.Snapshot() }

// EnableTracing switches per-request span recording on (off by default;
// the counters are always live). Recording orders events on one stream, so
// it also parks the rank fan-out back onto a single goroutine, keeping
// TraceJSON byte-identical across runs and GOMAXPROCS settings.
func (vm *VM) EnableTracing() {
	vm.rec.Enable()
	vm.updateRealPar()
}

// Recorder exposes the VM's span recorder.
func (vm *VM) Recorder() *obs.Recorder { return vm.rec }

// TraceJSON exports the recorded spans as Chrome trace-event JSON, loadable
// in chrome://tracing or Perfetto. Deterministic: two identical runs export
// byte-identical traces.
func (vm *VM) TraceJSON() []byte { return vm.rec.ChromeTraceJSON() }

// Memory exposes guest RAM (for tests).
func (vm *VM) Memory() *hostmem.Memory { return vm.mem }

// InjectChainFault installs a descriptor-chain fault hook on every vUPMEM
// device's transferq and controlq (nil uninstalls). Chaos tests use it to
// corrupt or reject chains in flight; production code never calls it.
func (vm *VM) InjectChainFault(f virtio.ChainFault) {
	for _, q := range vm.tqs {
		q.SetFault(f)
	}
	for _, q := range vm.cqs {
		q.SetFault(f)
	}
	vm.chainFaulted = f != nil
	vm.updateRealPar()
}

// InjectBackendFault installs a backend fault policy (translate/copy
// failures) on every vUPMEM device's backend (nil uninstalls).
func (vm *VM) InjectBackendFault(p *backend.FaultPolicy) {
	for _, b := range vm.backs {
		b.SetFault(p)
	}
	vm.backendFaulted = p != nil
	vm.updateRealPar()
}

// MigrateRank transparently consolidates one vUPMEM device onto another
// physical rank via the manager's checkpoint/restore (a host-operator
// action; the guest keeps using the device unchanged).
func (vm *VM) MigrateRank(device int) error {
	if device < 0 || device >= len(vm.backs) {
		return fmt.Errorf("vmm: device %d out of range", device)
	}
	return vm.backs[device].Migrate(vm.tl)
}

// AllocSet implements sdk.Env: attach as many vUPMEM devices as needed to
// cover nrDPUs and present them as one dpu_set (vUPMEM booking,
// Section 3.3).
//
// The attachment path is fault tolerant: a device whose rank allocation
// fails (exhaustion after the manager's retry budget, or an injected fault)
// is skipped, and the remaining devices may still cover the request. The
// booking fails only when the surviving devices cannot provide nrDPUs; the
// last attach error is reported alongside so the tenant sees why.
func (vm *VM) AllocSet(nrDPUs int) (*sdk.Set, error) {
	var devs []sdk.Device
	var attached []*driver.Frontend
	var attachErr error
	covered := 0
	for _, f := range vm.fronts {
		if covered >= nrDPUs {
			break
		}
		if err := f.Attach(vm.tl); err != nil {
			attachErr = fmt.Errorf("attach %s: %w", f.ID(), err)
			continue
		}
		devs = append(devs, f)
		attached = append(attached, f)
		covered += f.NumDPUs()
	}
	if covered < nrDPUs {
		// Unwind the partial booking: the already-attached devices hold
		// ranks the manager still accounts to this VM; leaving them
		// allocated would deadlock the tenant's retry against its own
		// leaked ranks.
		for _, f := range attached {
			if derr := f.Detach(vm.tl); derr != nil && attachErr == nil {
				attachErr = fmt.Errorf("detach %s: %w", f.ID(), derr)
			}
		}
		if attachErr != nil {
			return nil, fmt.Errorf("%w: want %d DPUs, vUPMEM devices provide %d (%v)",
				sdk.ErrNotEnoughDPUs, nrDPUs, covered, attachErr)
		}
		return nil, fmt.Errorf("%w: want %d DPUs, vUPMEM devices provide %d",
			sdk.ErrNotEnoughDPUs, nrDPUs, covered)
	}
	return sdk.NewSet(devs, nrDPUs, vm.tl)
}

// AllocBuffer implements sdk.Env: guest userspace memory.
func (vm *VM) AllocBuffer(n int) (hostmem.Buffer, error) {
	return vm.mem.Alloc(n)
}

// FreeBuffer implements sdk.Env.
func (vm *VM) FreeBuffer(buf hostmem.Buffer) error {
	return vm.mem.Free(buf.GPA)
}

// Timeline implements sdk.Env.
func (vm *VM) Timeline() *simtime.Timeline { return vm.tl }

// Tracker implements sdk.Env.
func (vm *VM) Tracker() *simtime.Tracker { return vm.tracker }
