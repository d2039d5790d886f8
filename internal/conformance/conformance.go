// Package conformance is the differential test harness of the virtio-pim
// stack: it runs the sixteen PrIM applications through every interesting
// vmm.Options point — native execution, the Table 2 variants, vhost,
// engine choices, multi-VM oversubscription — and asserts that every
// configuration produces bit-identical device readbacks (the observable
// output of a PIM application) while the observability counters satisfy the
// stack's structural invariants.
//
// The package also houses the seeded chaos engine (chaos.go): a
// deterministic fault plan compiled from a single seed drives rank deaths,
// failed resets, allocation stalls, corrupted descriptor chains and
// backend copy/translate failures through a full-stack run, asserting that
// every application either completes with output identical to the fault-free
// reference or fails cleanly — and that the same seed replays the same run.
package conformance

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
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

// Machine geometry for conformance runs: two ranks so the parallel
// event-loop mode genuinely overlaps rank operations and multi-VM
// oversubscription has a rank to contend for, eight DPUs per rank so the
// sixteen-DPU application set always spans both ranks.
const (
	confRanks     = 2
	confDPUs      = 8
	confMRAMBytes = 8 << 20
	confSetDPUs   = confRanks * confDPUs
)

// managerOpts bounds the manager's real-time retry budget: conformance and
// chaos runs deliberately exhaust ranks, and the default 100 ms backoff
// ladder would spend most of the suite's wall-clock budget sleeping.
func managerOpts() manager.Options {
	return manager.Options{Retries: 2, RetryTimeout: time.Millisecond}
}

// newMachine builds a fresh conformance machine with the PrIM kernels
// registered, fronted by a manager with opts.
func newMachine(opts manager.Options) (*pim.Machine, *manager.Manager, error) {
	mach, err := pim.NewMachine(pim.MachineConfig{
		Ranks: confRanks,
		Rank:  pim.RankConfig{DPUs: confDPUs, MRAMBytes: confMRAMBytes},
	})
	if err != nil {
		return nil, nil, err
	}
	if err := prim.Register(mach.Registry()); err != nil {
		return nil, nil, err
	}
	return mach, manager.New(mach, opts), nil
}

// params sizes one application run for the conformance machine.
func params() prim.Params {
	return prim.Params{DPUs: confSetDPUs, Scale: 1, Seed: 1}
}

// Digest summarizes every device readback an application observed: an
// FNV-1a hash over the framed event stream plus the event count. Two runs
// with equal digests read bit-identical data from their devices at every
// step, which (combined with each application's internal CPU-reference
// check) is the harness's definition of "same output".
type Digest struct {
	Sum    uint64
	Events int64
}

func (d Digest) String() string {
	return fmt.Sprintf("%016x/%d", d.Sum, d.Events)
}

// digester accumulates the readback stream of one run.
type digester struct {
	h      hash.Hash64
	events int64
}

func newDigester() *digester {
	return &digester{h: fnv.New64a()}
}

// observe implements sdk.ReadObserver: each event is framed
// (kind, NUL, dpu, off, len, data) so distinct streams cannot collide by
// concatenation.
func (d *digester) observe(kind string, dpu int, off int64, data []byte) {
	var frame [8 * 3]byte
	d.h.Write([]byte(kind))
	d.h.Write([]byte{0})
	binary.LittleEndian.PutUint64(frame[0:], uint64(int64(dpu)))
	binary.LittleEndian.PutUint64(frame[8:], uint64(off))
	binary.LittleEndian.PutUint64(frame[16:], uint64(len(data)))
	d.h.Write(frame[:])
	d.h.Write(data)
	d.events++
}

func (d *digester) digest() Digest {
	return Digest{Sum: d.h.Sum64(), Events: d.events}
}

// digestEnv wraps an execution environment so every set an application
// allocates reports its readbacks into the digester. Applications are
// oblivious: they receive a plain sdk.Env.
type digestEnv struct {
	sdk.Env
	d *digester
}

func (e *digestEnv) AllocSet(nrDPUs int) (*sdk.Set, error) {
	s, err := e.Env.AllocSet(nrDPUs)
	if err != nil {
		return nil, err
	}
	s.ObserveReads(e.d.observe)
	return s, nil
}

// RunApp executes one PrIM application in env and returns the digest of
// everything it read back from the device.
func RunApp(env sdk.Env, app prim.App, p prim.Params) (Digest, error) {
	d := newDigester()
	if err := app.Run(&digestEnv{Env: env, d: d}, p); err != nil {
		return Digest{}, err
	}
	return d.digest(), nil
}

// NativeRun is one application's native reference run: its readback
// digest, the virtual clock at completion and the DPU phase's share of that
// clock. Only the cost model and the kernel's own Tick, DMA and barrier
// calls set the two times, so a golden copy of them pins each kernel's
// virtual cost.
type NativeRun struct {
	App    string
	Digest Digest
	Clock  time.Duration
	DPU    time.Duration
}

// nativeReference runs app on a fresh native machine: the ground truth every
// virtualized configuration must reproduce.
func nativeReference(app prim.App) (NativeRun, error) {
	mach, mgr, err := newMachine(managerOpts())
	if err != nil {
		return NativeRun{}, err
	}
	env := native.NewEnv(mach, mgr, 16<<30)
	dg, err := RunApp(env, app, params())
	if err != nil {
		return NativeRun{}, err
	}
	return nativeRun(app.Name, env, dg), nil
}

func nativeRun(name string, env *native.Env, dg Digest) NativeRun {
	return NativeRun{App: name, Digest: dg, Clock: env.Timeline().Now(), DPU: env.Tracker().Get(trace.PhaseDPU)}
}

// NativeIndexSearch runs the Wikipedia index search natively on a fresh
// conformance machine over a test-sized corpus. No conformance cell runs
// the upmem kernels, so this run and NativeChecksum pin them.
func NativeIndexSearch() (NativeRun, error) {
	p := upmem.IndexSearchParams{DPUs: confSetDPUs, Docs: 200, TermsPerDoc: 60, Queries: 64, BatchSize: 32}
	return nativeUpmem("IndexSearch", func(env sdk.Env) error { return upmem.RunIndexSearch(env, p) })
}

// NativeChecksum runs the checksum microbenchmark natively on a fresh
// conformance machine. Its file is 1 MiB + 24 bytes per DPU, so neither
// the tasklet shares nor their 2 KiB blocks divide it evenly.
func NativeChecksum() (NativeRun, error) {
	p := upmem.ChecksumParams{DPUs: confSetDPUs, BytesPerDPU: 1<<20 + 24}
	return nativeUpmem("Checksum", func(env sdk.Env) error { return upmem.RunChecksum(env, p) })
}

// nativeUpmem runs one upmem microbenchmark natively on a fresh conformance
// machine.
func nativeUpmem(name string, run func(sdk.Env) error) (NativeRun, error) {
	mach, mgr, err := newMachine(managerOpts())
	if err != nil {
		return NativeRun{}, err
	}
	if err := upmem.Register(mach.Registry()); err != nil {
		return NativeRun{}, err
	}
	env := native.NewEnv(mach, mgr, 1<<30)
	d := newDigester()
	if err := run(&digestEnv{Env: env, d: d}); err != nil {
		return NativeRun{}, err
	}
	return nativeRun(name, env, d.digest()), nil
}

// RunCell runs one PrIM application (by short name) on a fresh conformance
// machine under opts, returning the readback digest and the aggregated
// counter snapshot. Differential tests use it to compare two options points
// (e.g. pipelined vs. synchronous submission) counter by counter.
func RunCell(appName string, opts vmm.Options) (Digest, map[string]int64, error) {
	app, err := prim.Lookup(appName)
	if err != nil {
		return Digest{}, nil, err
	}
	vm, _, err := newVM("cell", opts, confRanks)
	if err != nil {
		return Digest{}, nil, err
	}
	dg, err := RunApp(vm, app, params())
	if err != nil {
		return Digest{}, nil, err
	}
	return dg, obs.Aggregate(vm.Metrics()), nil
}

// newVM boots a conformance VM over a fresh machine.
func newVM(name string, opts vmm.Options, vupmems int) (*vmm.VM, *manager.Manager, error) {
	mach, mgr, err := newMachine(managerOpts())
	if err != nil {
		return nil, nil, err
	}
	vm, err := vmm.NewVM(mach, mgr, vmm.Config{
		Name:    name,
		VCPUs:   16,
		VUPMEMs: vupmems,
		Options: opts,
	})
	if err != nil {
		return nil, nil, err
	}
	return vm, mgr, nil
}
