// Package kvm models the hypervisor's role in the vPIM request path: the
// guest's virtqueue notification traps into KVM (a VMEXIT), KVM forwards the
// event to the VMM (Firecracker), and on completion the VMM injects an IRQ
// that resumes the guest driver.
//
// The paper's central measurement is that these transitions — not the data
// volume — dominate virtualization overhead, so this package is deliberately
// a pure cost layer: it advances virtual time and counts transitions, while
// the functional payload travels through the virtqueue untouched.
package kvm

import (
	"sync/atomic"

	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// Path is the guest<->VMM transition machinery of one VM.
type Path struct {
	model cost.Model
	exits atomic.Int64
	irqs  atomic.Int64

	// Per-reason exit counters (nil until SetObs): virtqueue notifications
	// vs. aggregated CI-boot round trips, plus the transitions the pipelined
	// submission window avoided entirely.
	cNotify     *obs.Counter
	cAggregated *obs.Counter
	cIRQs       *obs.Counter
	cSuppressed *obs.Counter
	cCoalesced  *obs.Counter
}

// NewPath creates the transition layer with the given cost model.
func NewPath(model cost.Model) *Path {
	return &Path{model: model}
}

// SetObs registers the path's per-reason exit counters in reg:
// "kvm.exits.notify" (one per virtqueue notification trap),
// "kvm.exits.aggregated" (CI-boot round trips accounted in bulk),
// "kvm.irqs" (completion interrupts injected into the guest),
// "kvm.exits.suppressed" (VMEXITs the event-idx window avoided) and
// "kvm.irqs.coalesced" (completion IRQs merged into one injection).
func (p *Path) SetObs(reg *obs.Registry) {
	p.cNotify = reg.Counter("kvm.exits.notify")
	p.cAggregated = reg.Counter("kvm.exits.aggregated")
	p.cIRQs = reg.Counter("kvm.irqs")
	p.cSuppressed = reg.Counter("kvm.exits.suppressed")
	p.cCoalesced = reg.Counter("kvm.irqs.coalesced")
}

// GuestToVMM charges one virtqueue notification: VMEXIT plus the VMM's event
// dispatch. Recorded under the virtio-interrupt step of Fig. 13.
func (p *Path) GuestToVMM(tl *simtime.Timeline) {
	p.exits.Add(1)
	p.cNotify.Inc()
	tl.Charge(trace.StepInt, p.model.TrapToVMM+p.model.EventDispatch)
}

// VMMToGuest charges the completion IRQ injection and guest driver wakeup.
func (p *Path) VMMToGuest(tl *simtime.Timeline) {
	p.irqs.Add(1)
	p.cIRQs.Inc()
	tl.Charge(trace.StepInt, p.model.IRQInject)
}

// AddRoundTrips accounts n aggregated guest<->VMM round trips without
// running them individually (used for a launch's per-DPU CI boot sequence,
// whose n*50 messages would be wasteful to simulate one by one). The cost is
// charged by the caller.
func (p *Path) AddRoundTrips(n int64) {
	p.exits.Add(n)
	p.irqs.Add(n)
	p.cAggregated.Add(n)
	p.cIRQs.Add(n)
}

// SuppressNotify accounts n virtqueue notifications that never happened:
// chains published on the avail ring while the device was already kicked
// (event-idx suppression). No time is charged — that is the entire point.
func (p *Path) SuppressNotify(n int64) {
	if n <= 0 {
		return
	}
	p.cSuppressed.Add(n)
}

// CoalesceIRQs accounts n completion interrupts merged into a single
// injection: the device finished n extra chains before signalling once.
// No time is charged.
func (p *Path) CoalesceIRQs(n int64) {
	if n <= 0 {
		return
	}
	p.cCoalesced.Add(n)
}

// Exits reports the number of VMEXITs so far.
func (p *Path) Exits() int64 { return p.exits.Load() }

// IRQs reports the number of injected interrupts so far.
func (p *Path) IRQs() int64 { return p.irqs.Load() }
