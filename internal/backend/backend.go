// Package backend implements the vPIM device backend inside the VMM
// (Section 4.2): it decodes requests arriving on the virtqueues, translates
// guest physical addresses to host virtual addresses with a worker pool,
// executes rank operations 8 DPUs at a time in performance mode (the rank is
// mmapped, bypassing the host kernel driver), and cooperates with the
// manager to attach and release physical ranks.
package backend

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/cost"
	"repro/internal/hostmem"
	"repro/internal/manager"
	"repro/internal/native"
	"repro/internal/obs"
	"repro/internal/pim"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/virtio"
)

// Backend serves one vUPMEM device of one VM.
type Backend struct {
	id     string
	mach   *pim.Machine
	mgr    manager.RankManager
	mem    *hostmem.Memory
	model  cost.Model
	engine cost.Engine
	loop   *EventLoop
	// oversubscribe enables the simulator fallback: when the manager has
	// no physical rank, the device attaches a software-simulated rank at
	// reduced performance (the oversubscription mechanism the paper's
	// conclusion proposes).
	oversubscribe bool

	rank *pim.Rank
	// simulated marks an oversubscribed (simulator-backed) rank;
	// simAttaches counts how many times the device fell back to the
	// simulator over its lifetime.
	simulated   bool
	simAttaches int64
	// completion is the virtual instant the in-flight launch finishes;
	// status polls compare the timeline against it.
	completion simtime.Duration

	// fault holds the injected copy/translate failures (nil = none).
	fault *FaultPolicy

	// errs is the per-chain error slice handed back to the queue, reused so
	// a kick allocates nothing.
	errs []error

	// Observability (nil-safe until SetObs): deserialized rows, translated
	// pages, copied bytes per engine, applied batch records, simulator
	// failovers and broadcast targets. reg also holds the DPU fault
	// counter, which handleLaunch registers at the first fault.
	reg           *obs.Registry
	rec           *obs.Recorder
	cRows         *obs.Counter
	cPages        *obs.Counter
	cCopyBytes    *obs.Counter
	cBatchRecords *obs.Counter
	cFailovers    *obs.Counter
	cBcastFanout  *obs.Counter
}

// FaultPolicy injects data-path failures into the backend for chaos
// testing. Hooks are optional; they run on the request path, so a true
// return makes the in-flight operation fail with a device error — the
// guest driver surfaces it, and no partial result may be reported as
// success.
type FaultPolicy struct {
	// FailTranslate reports whether the GPA->HVA translation of the given
	// guest page fails (a stale or hostile page table entry).
	FailTranslate func(gpa uint64) bool
	// FailCopy reports whether the rank copy for the given DPU fails (an
	// MRAM transfer error surfaced by the UPMEM driver).
	FailCopy func(dpu int) bool
}

// SetFault installs (or, with nil, removes) the backend's fault policy.
func (b *Backend) SetFault(p *FaultPolicy) { b.fault = p }

// New wires a backend. engine selects the Rust or C copy path; loop is the
// VM-wide event loop shared by all vUPMEM devices.
func New(id string, mach *pim.Machine, mgr manager.RankManager, mem *hostmem.Memory, engine cost.Engine, loop *EventLoop) *Backend {
	return &Backend{
		id:     id,
		mach:   mach,
		mgr:    mgr,
		mem:    mem,
		model:  mach.Model(),
		engine: engine,
		loop:   loop,
	}
}

// SetObs registers the backend's counters in reg (tagged with the device
// ID) and attaches the VM's span recorder. The copy-bytes counter carries
// the engine name so the C and Rust paths stay distinguishable.
func (b *Backend) SetObs(reg *obs.Registry, rec *obs.Recorder) {
	tag := "#" + b.id
	b.reg = reg
	b.rec = rec
	b.cRows = reg.Counter("backend.deser.rows" + tag)
	b.cPages = reg.Counter("backend.deser.pages" + tag)
	b.cCopyBytes = reg.Counter("backend.copy.bytes." + b.engine.String() + tag)
	b.cBatchRecords = reg.Counter("backend.batch.records" + tag)
	b.cFailovers = reg.Counter("backend.failovers" + tag)
	b.cBcastFanout = reg.Counter("backend.bcast.fanout" + tag)
}

// Rank exposes the attached physical rank (nil when detached).
func (b *Backend) Rank() *pim.Rank { return b.rank }

// Simulated reports whether the attached rank is a software simulator
// (oversubscription fallback).
func (b *Backend) Simulated() bool { return b.simulated }

// SimulatedAttachments counts the device's simulator fallbacks so far.
func (b *Backend) SimulatedAttachments() int64 { return b.simAttaches }

// SetOversubscribe enables the simulator fallback (called by the VMM while
// realizing the device).
func (b *Backend) SetOversubscribe(v bool) { b.oversubscribe = v }

// simulatorSlowdown is the performance penalty of the software-simulated
// rank relative to real hardware.
const simulatorSlowdown = 8

// attachSimulated builds a simulator-backed rank mirroring the machine's
// rank geometry, with DPU execution and DMA slowed by simulatorSlowdown.
func (b *Backend) attachSimulated() error {
	template, err := b.mach.Rank(0)
	if err != nil {
		return err
	}
	simModel := b.model
	simModel.DPUCyclesPerSec /= simulatorSlowdown
	simModel.MRAMBytesPerSec /= simulatorSlowdown
	b.rank = pim.NewRank(-1, pim.RankConfig{
		DPUs:         template.NumDPUs(),
		MRAMBytes:    template.MRAMBytes(),
		FrequencyMHz: template.FrequencyMHz() / simulatorSlowdown,
	}, simModel)
	b.simulated = true
	b.simAttaches++
	return nil
}

// Migrate consolidates the device onto another physical rank through the
// manager's checkpoint/restore: transparent to the guest, which keeps
// operating the same vUPMEM device. Only idle, physically-backed devices
// can migrate.
func (b *Backend) Migrate(tl *simtime.Timeline) error {
	if b.rank == nil {
		return ErrNoRank
	}
	if b.simulated {
		return fmt.Errorf("backend %s: simulated ranks do not migrate", b.id)
	}
	dst, dur, err := b.mgr.MigrateOwned(b.id, b.rank)
	// Preparation work (a target reset, a checkpoint copy) is charged even
	// when the migration fails: the manager really performed it on this
	// device's behalf.
	tl.Charge(trace.OpAlloc, dur)
	if err != nil {
		return fmt.Errorf("migrate %s: %w", b.id, err)
	}
	b.rank = dst
	return nil
}

// HandleControl serves a controlq kick: manager synchronization (rank
// attach and detach), one chain at a time in submission order.
func (b *Backend) HandleControl(chains []*virtio.Chain, tl *simtime.Timeline) []error {
	errs := b.errSlots(len(chains))
	for i, c := range chains {
		errs[i] = b.control(c, tl)
	}
	return errs
}

// control processes one controlq chain.
func (b *Backend) control(chain *virtio.Chain, tl *simtime.Timeline) error {
	req, status, err := b.decode(chain)
	if err != nil {
		return err
	}
	defer b.recordVMMSpan(req, chain, tl.Now())(tl)
	switch req.Op {
	case virtio.OpAttach:
		if b.rank == nil {
			rank, latency, aerr := b.mgr.Alloc(b.id)
			tl.Charge(trace.OpAlloc, latency)
			if aerr != nil {
				if !b.oversubscribe {
					b.writeStatus(status, virtio.StatusError)
					return fmt.Errorf("attach %s: %w", b.id, aerr)
				}
				// Oversubscription: fall back to the software simulator
				// at reduced performance rather than failing the tenant.
				b.cFailovers.Inc()
				if serr := b.attachSimulated(); serr != nil {
					b.writeStatus(status, virtio.StatusError)
					return fmt.Errorf("attach %s (simulated): %w", b.id, serr)
				}
			} else {
				b.rank = rank
			}
		}
		b.writeStatus(status, virtio.StatusOK)
		return nil
	case virtio.OpRelease:
		// Frontend.Detach: hand the rank back without the transferq (the
		// device may be mid-unwind and never become usable).
		if b.rank != nil {
			if err := b.handleRelease(tl); err != nil {
				b.writeStatus(status, virtio.StatusError)
				return fmt.Errorf("detach %s: %w", b.id, err)
			}
		}
		b.writeStatus(status, virtio.StatusOK)
		return nil
	default:
		b.writeStatus(status, virtio.StatusError)
		return fmt.Errorf("backend: op %v not valid on controlq", req.Op)
	}
}

// recordVMMSpan opens the backend hop of a request's journey; the returned
// closure completes it. No-op when tracing is off.
func (b *Backend) recordVMMSpan(req virtio.Request, chain *virtio.Chain, start simtime.Duration) func(tl *simtime.Timeline) {
	if !b.rec.Enabled() {
		return func(*simtime.Timeline) {}
	}
	return func(tl *simtime.Timeline) {
		b.rec.Record(obs.Event{
			Name: "vmm:" + req.Op.String(), Cat: "vmm", TID: obs.LaneVMM,
			Req: chain.ReqID, Start: start, Dur: tl.Now() - start,
		})
	}
}

// acquire pins the rank for one admitted operation (or one whole pipelined
// window). It revalidates against the fault policy (a physically-backed
// rank may have died since the last request) and, when the manager's
// time-slicing scheduler preempted this tenant, blocks to restore the
// parked snapshot onto a fresh rank — possibly a different index,
// transparent to the guest. With oversubscription a dead rank (or an
// unrecoverable resume) fails over to a blank simulated rank: the tenant
// survives, though the rank's MRAM contents are lost. The returned closure
// ends the scheduling quantum and must run after dispatching.
func (b *Backend) acquire(tl *simtime.Timeline) (func(tl *simtime.Timeline), error) {
	if b.simulated {
		return func(*simtime.Timeline) {}, nil
	}
	rank, acost, aerr := b.mgr.Acquire(b.id, b.rank)
	if aerr != nil {
		if !b.oversubscribe {
			if errors.Is(aerr, manager.ErrRankFaulted) {
				b.rank = nil
			}
			return nil, fmt.Errorf("backend %s: %w", b.id, aerr)
		}
		b.cFailovers.Inc()
		// Any parked snapshot cannot follow the device onto the
		// simulator; drop it like the dead rank's contents.
		b.mgr.Discard(b.id)
		if serr := b.attachSimulated(); serr != nil {
			return nil, fmt.Errorf("backend %s failover: %w", b.id, serr)
		}
		return func(*simtime.Timeline) {}, nil
	}
	b.rank = rank
	tl.Charge(trace.OpAlloc, acost.Wait)
	tl.Charge(trace.OpCheckpoint, acost.Checkpoint)
	tl.Charge(trace.OpRestore, acost.Restore)
	// The operation's own virtual time — measured from after the
	// resume charges — feeds the owner's scheduling quantum.
	opStart := tl.Now()
	return func(tl *simtime.Timeline) {
		if b.rank == rank {
			b.mgr.EndOp(rank, tl.Now()-opStart)
		}
	}, nil
}

// errSlots returns the reused per-chain error slots, cleared, for a window
// of n chains.
func (b *Backend) errSlots(n int) []error {
	if cap(b.errs) < n {
		b.errs = make([]error, n)
	}
	errs := b.errs[:n]
	clear(errs)
	return errs
}

// HandleWindow serves every transferq kick — configuration, CI commands,
// program load/launch, symbol access and rank data transfers — in a single
// event-loop admission under a single rank acquisition: the device-side
// half of notification suppression. A synchronous request arrives as the
// last chain of its window, which without pipelining holds only that chain.
// Chains are dispatched in submission order; each gets its own status
// descriptor, so a corrupted or failing chain fails alone and never wedges
// the drain. The caller signals one coalesced IRQ for the window.
//
// A chain's VMM span opens once its header decodes, before the rank check
// and the acquisition, so the manager's resume charges (op:alloc wait,
// op:ckpt, op:restore) fall inside the VMM hop of the chain that paid them.
func (b *Backend) HandleWindow(chains []*virtio.Chain, tl *simtime.Timeline) []error {
	errs := b.errSlots(len(chains))
	if len(chains) == 0 {
		return errs
	}
	done := b.loop.Admit(tl)
	defer func() { done(tl) }()

	var endOp func(*simtime.Timeline)
	for i, c := range chains {
		req, status, err := b.decode(c)
		if err != nil {
			errs[i] = err
			continue
		}
		span := b.recordVMMSpan(req, c, tl.Now())
		switch {
		case b.rank == nil:
			// The spec: the driver must not send requests while the device
			// is not linked to a physical PIM device.
			errs[i] = fmt.Errorf("backend %s: %w", b.id, ErrNoRank)
		case endOp == nil:
			endOp, errs[i] = b.acquire(tl)
		}
		if errs[i] == nil {
			errs[i] = b.dispatch(req, c, status, tl)
		}
		if errs[i] != nil {
			b.writeStatus(status, virtio.StatusError)
		} else {
			b.writeStatus(status, virtio.StatusOK)
		}
		span(tl)
	}
	if endOp != nil {
		endOp(tl)
	}
	return errs
}

// ErrNoRank reports a request on a device with no rank attached.
var ErrNoRank = errNoRank{}

type errNoRank struct{}

func (errNoRank) Error() string { return "backend: no physical rank attached" }

// decode reads the request header (first descriptor) and locates the status
// descriptor (last, device-writable).
func (b *Backend) decode(chain *virtio.Chain) (virtio.Request, []byte, error) {
	if len(chain.Descs) < 2 {
		return virtio.Request{}, nil, fmt.Errorf("backend: chain of %d descriptors", len(chain.Descs))
	}
	hdrDesc := chain.Descs[0]
	hdr, err := b.mem.Slice(hdrDesc.GPA, int(hdrDesc.Len))
	if err != nil {
		return virtio.Request{}, nil, fmt.Errorf("header: %w", err)
	}
	req, err := virtio.DecodeRequest(hdr)
	if err != nil {
		return virtio.Request{}, nil, err
	}
	last := chain.Descs[len(chain.Descs)-1]
	if !last.Writable {
		return virtio.Request{}, nil, fmt.Errorf("backend: status descriptor not writable")
	}
	status, err := b.mem.Slice(last.GPA, int(last.Len))
	if err != nil {
		return virtio.Request{}, nil, fmt.Errorf("status: %w", err)
	}
	return req, status, nil
}

func (b *Backend) writeStatus(status []byte, code uint32) {
	if len(status) >= 8 {
		binary.LittleEndian.PutUint64(status, uint64(code))
	}
}

func (b *Backend) dispatch(req virtio.Request, chain *virtio.Chain, status []byte, tl *simtime.Timeline) error {
	switch req.Op {
	case virtio.OpConfig:
		return b.handleConfig(chain, tl)
	case virtio.OpCI:
		return b.handleCI(req, status, tl)
	case virtio.OpLoadProgram:
		return native.LoadProgram(b.rank, b.mach.Registry(), req.Symbol, b.model, tl)
	case virtio.OpLaunch:
		return b.handleLaunch(req, status, tl)
	case virtio.OpSymWrite, virtio.OpSymRead:
		return b.handleSymbol(req, chain, tl)
	case virtio.OpWriteRank, virtio.OpReadRank, virtio.OpWriteRankBcast:
		return b.handleData(req, chain, tl)
	case virtio.OpRelease:
		return b.handleRelease(tl)
	default:
		return fmt.Errorf("backend: unknown op %v", req.Op)
	}
}

func (b *Backend) handleConfig(chain *virtio.Chain, tl *simtime.Timeline) error {
	if len(chain.Descs) < 3 {
		return fmt.Errorf("backend: config chain needs a response descriptor")
	}
	resp := chain.Descs[1]
	buf, err := b.mem.Slice(resp.GPA, int(resp.Len))
	if err != nil {
		return err
	}
	tl.Advance(b.model.CIOperation)
	return virtio.EncodeConfig(virtio.DeviceConfig{
		NumDPUs:       uint32(b.rank.NumDPUs()),
		FrequencyMHz:  uint32(b.rank.FrequencyMHz()),
		MRAMBytes:     uint64(b.rank.MRAMBytes()),
		ClockDivision: 2,
		NumCIs:        pim.ChipsPerRank,
	}, buf)
}

func (b *Backend) handleCI(req virtio.Request, status []byte, tl *simtime.Timeline) error {
	b.rank.CIOp()
	tl.Advance(b.model.CIOperation)
	// Status poll: report whether the running launch has completed by now.
	if req.Offset == 1 && len(status) > 8 {
		if tl.Now() >= b.completion {
			status[8] = 1
		} else {
			status[8] = 0
		}
	}
	return nil
}

func (b *Backend) handleLaunch(req virtio.Request, status []byte, tl *simtime.Timeline) error {
	// Every named DPU goes to the rank, which rejects one past its DPU
	// count with pim.ErrBadDPU, as a native launch does.
	res, err := b.rank.Launch(maskDPUs(req.DPUMask))
	if err != nil {
		if errors.Is(err, pim.ErrDPUFault) || errors.Is(err, pim.ErrDeadlock) {
			// Registered at the first fault, so the counter snapshot of a
			// fault-free run does not list it.
			b.reg.Counter("backend.dpu.faults#" + b.id).Inc()
		}
		return err
	}
	tl.Advance(b.model.LaunchFixed)
	b.completion = tl.Now() + res.Duration
	// Report the completion instant for asynchronous launches.
	if len(status) >= 16 {
		binary.LittleEndian.PutUint64(status[8:], uint64(b.completion))
	}
	return nil
}

func (b *Backend) handleSymbol(req virtio.Request, chain *virtio.Chain, tl *simtime.Timeline) error {
	if len(chain.Descs) < 3 {
		return fmt.Errorf("backend: symbol chain needs a payload descriptor")
	}
	payload := chain.Descs[1]
	buf, err := b.mem.Slice(payload.GPA, int(payload.Len))
	if err != nil {
		return err
	}
	b.rank.CIOp()
	tl.Advance(b.model.CIOperation)
	if req.Op == virtio.OpSymWrite {
		if req.DPU == virtio.BroadcastDPU {
			for dpu := 0; dpu < b.rank.NumDPUs(); dpu++ {
				if err := b.rank.SymbolWrite(dpu, req.Symbol, int(req.Offset), buf[:req.Length]); err != nil {
					return err
				}
			}
			return nil
		}
		return b.rank.SymbolWrite(int(req.DPU), req.Symbol, int(req.Offset), buf[:req.Length])
	}
	return b.rank.SymbolRead(int(req.DPU), req.Symbol, int(req.Offset), buf[:req.Length])
}

func (b *Backend) handleRelease(tl *simtime.Timeline) error {
	// Simulated (oversubscribed) ranks are private to the device: dropping
	// them is the release.
	if !b.simulated {
		// The VM does not talk to the manager here: releasing updates the
		// rank's status (sysfs), and the manager's observer notices. The
		// owner-keyed form resolves the preemption race: if the scheduler
		// parked this tenant, the snapshot is discarded and the rank (which
		// may already serve someone else) is left untouched.
		if err := b.mgr.ReleaseOwned(b.id, b.rank); err != nil {
			return err
		}
	}
	b.rank = nil
	b.simulated = false
	b.completion = 0
	tl.Advance(b.model.CIOperation)
	return nil
}
