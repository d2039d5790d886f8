// Package virtio implements the virtio-pim device specification the paper
// introduces (Appendix A.1): device ID 42, two virtqueues (transferq with
// 512 descriptor slots for data and commands, controlq for manager
// synchronization), a device configuration layout, and the request wire
// format carried through guest memory.
//
// The five device operations of the specification — requesting
// configuration, sending commands, reading commands, writing to the PIM
// device and reading from the PIM device — map onto the Op codes below;
// command sub-kinds (CI access, program load, launch, host-symbol access)
// are SendCommand/ReadCommand variants and are given distinct codes so the
// backend can dispatch without re-parsing payloads.
package virtio

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/simtime"
)

// DeviceID is the virtio device ID assigned to PIM devices by the spec.
const DeviceID = 42

// TransferQueueSize is the descriptor capacity of transferq. The serialized
// transfer matrix uses at most 130 buffers, fitting comfortably.
const TransferQueueSize = 512

// MaxMatrixBuffers is the ceiling on buffers used by a serialized matrix:
// one request-info buffer, one matrix-metadata buffer and a metadata + page
// buffer pair per DPU (Fig. 7).
const MaxMatrixBuffers = 130

// Op enumerates virtio-pim request types.
type Op uint32

const (
	// OpConfig requests device configuration (frequency, DPU count, MRAM
	// size); used once during device initialization.
	OpConfig Op = iota + 1
	// OpCI sends a raw control-interface command to the rank.
	OpCI
	// OpLoadProgram loads a named DPU binary on all DPUs of the rank.
	OpLoadProgram
	// OpLaunch starts the loaded program on the listed DPUs and completes
	// when the program finishes (DPU_SYNCHRONOUS).
	OpLaunch
	// OpWriteRank transfers a serialized matrix from guest pages to MRAM.
	OpWriteRank
	// OpReadRank transfers from MRAM into guest pages.
	OpReadRank
	// OpSymWrite writes a host symbol (__host variable) on one DPU.
	OpSymWrite
	// OpSymRead reads a host symbol from one DPU.
	OpSymRead
	// OpRelease detaches the physical rank from the vUPMEM device.
	OpRelease
	// OpAttach asks the backend to attach a physical rank (through the
	// manager) if none is attached.
	OpAttach
	// OpWriteRankBcast transfers one serialized matrix row to many DPUs: the
	// chain has the shape of a one-row OpWriteRank matrix, the header's
	// DPUMask names the targets, and the backend writes the row onto every
	// DPU in the mask. Emitted by the frontend when the guest prepared the
	// same backing buffer for several DPUs, deduplicating the page
	// management, serialization and translation work.
	OpWriteRankBcast
)

// String implements fmt.Stringer for logs and traces.
func (o Op) String() string {
	switch o {
	case OpConfig:
		return "config"
	case OpCI:
		return "ci"
	case OpLoadProgram:
		return "load"
	case OpLaunch:
		return "launch"
	case OpWriteRank:
		return "write-rank"
	case OpReadRank:
		return "read-rank"
	case OpSymWrite:
		return "sym-write"
	case OpSymRead:
		return "sym-read"
	case OpRelease:
		return "release"
	case OpAttach:
		return "attach"
	case OpWriteRankBcast:
		return "write-rank-bcast"
	default:
		return fmt.Sprintf("op(%d)", uint32(o))
	}
}

// Status codes written by the device into the chain's status descriptor.
const (
	StatusOK    uint32 = 0
	StatusError uint32 = 1
)

// Errors reported by the queue machinery.
var (
	ErrChainTooLong = errors.New("virtio: descriptor chain exceeds queue size")
	ErrNoHandler    = errors.New("virtio: queue has no device handler")
	ErrDeviceFailed = errors.New("virtio: device reported failure")
)

// Desc points at one guest buffer. Writable marks device-writable
// descriptors (responses, read targets).
type Desc struct {
	GPA      uint64
	Len      uint32
	Writable bool
}

// Chain is a descriptor chain: one request. By convention desc[0] is the
// request header, the middle descriptors carry the serialized matrix or
// inline payloads, and the final descriptor is the device-writable status +
// response buffer.
type Chain struct {
	Descs []Desc
	// ReqID is host-side correlation metadata (not part of the wire
	// format): the obs request ID the frontend allocated for this
	// operation, threading one request's spans from the guest driver
	// through the backend to the rank. Zero when tracing is off.
	ReqID int64
}

// Handler processes one kicked submission window — every chain the guest
// published on the avail ring before notifying once — in a single
// device-side pass, advancing the given timeline by the virtual cost of the
// work. It returns one error slot per chain: a failing chain fails alone,
// the rest of the window completes normally. A synchronous request is the
// last chain of its window; without pipelining every window holds exactly
// one chain.
type Handler func(chains []*Chain, tl *simtime.Timeline) []error

// ChainFault is an injected descriptor-chain fault for chaos testing: it
// runs on every submitted chain before the device handler and may mutate
// the chain in place (truncate or corrupt descriptors) or reject it
// outright by returning an error. A corrupted chain must make the request
// fail cleanly — the device decode rejects it and the guest driver sees a
// device error — never corrupt state silently; the conformance harness
// asserts exactly that.
type ChainFault func(queue string, chain *Chain) error

// Queue is one virtqueue of a virtio-pim device.
type Queue struct {
	name      string
	size      int
	handler   Handler
	fault     ChainFault
	submitted atomic.Int64

	// Ring state (event-idx style): pending holds the chains published on
	// the avail ring but not yet kicked; avail/used are the ring indices and
	// kicks counts guest notifications. A window of one chain kicks once per
	// chain, so kicks == avail == used; a pipelined driver publishes a
	// window of chains and kicks once, and the gap between chains and kicks
	// is exactly the suppressed-notification count.
	pending []*Chain
	avail   atomic.Int64
	used    atomic.Int64
	kicks   atomic.Int64

	// Kick scratch, reused so a drain allocates nothing: the per-chain error
	// slots handed back to the driver, and the chains that survived the
	// fault injector with their positions in the window.
	errs    []error
	live    []*Chain
	liveIdx []int

	// Observability counters (nil until SetObs; nil counters swallow
	// updates, so an unobserved queue pays only a nil check).
	cChains *obs.Counter
	cDescs  *obs.Counter
	cKicks  *obs.Counter
	cAvail  *obs.Counter
	cUsed   *obs.Counter
}

// NewQueue creates a queue with the given descriptor capacity.
func NewQueue(name string, size int) *Queue {
	return &Queue{name: name, size: size}
}

// Name reports the queue name ("transferq" or "controlq").
func (q *Queue) Name() string { return q.name }

// Size reports the descriptor capacity.
func (q *Queue) Size() int { return q.size }

// SetHandler installs the device-side window handler; the VMM wires this
// during device realization.
func (q *Queue) SetHandler(h Handler) { q.handler = h }

// SetFault installs (or, with nil, removes) a chain-fault injector.
func (q *Queue) SetFault(f ChainFault) { q.fault = f }

// SetObs registers the queue's counters ("virtio.<queue>.chains",
// "virtio.<queue>.descs", plus the ring counters "kicks", "avail" and
// "used", tagged with the device ID) in reg.
func (q *Queue) SetObs(reg *obs.Registry, device string) {
	q.cChains = reg.Counter("virtio." + q.name + ".chains#" + device)
	q.cDescs = reg.Counter("virtio." + q.name + ".descs#" + device)
	q.cKicks = reg.Counter("virtio." + q.name + ".kicks#" + device)
	q.cAvail = reg.Counter("virtio." + q.name + ".avail#" + device)
	q.cUsed = reg.Counter("virtio." + q.name + ".used#" + device)
}

// Submitted reports how many chains have been pushed so far: the number of
// guest->VMM messages, the quantity the paper identifies as the dominant
// overhead source.
func (q *Queue) Submitted() int64 { return q.submitted.Load() }

// Kicks reports how many guest notifications the queue has received. With
// notification suppression, Submitted() - Kicks() is the number of VMEXITs
// the pipelined window saved.
func (q *Queue) Kicks() int64 { return q.kicks.Load() }

// Pending reports how many chains sit on the avail ring awaiting a kick.
func (q *Queue) Pending() int { return len(q.pending) }

// Stage publishes one chain on the avail ring without notifying the device:
// the event-idx half of notification suppression. The chain is processed
// at the next Kick.
func (q *Queue) Stage(chain *Chain) error {
	if len(chain.Descs) > q.size {
		return fmt.Errorf("%w: %d > %d", ErrChainTooLong, len(chain.Descs), q.size)
	}
	if q.handler == nil {
		return ErrNoHandler
	}
	q.avail.Add(1)
	q.cAvail.Inc()
	q.pending = append(q.pending, chain)
	return nil
}

// Kick notifies the device once and drains the whole avail window. The
// caller (the frontend, through the kvm transition layer) has already
// charged the trap cost; the handler charges device-side work. Kick returns
// one error slot per chain, in staging order, and a structural error only
// when the queue has no device handler. Chains the fault injector rejects
// fail alone with their slot set; the rest of the window still reaches the
// device, and every chain lands on the used ring — a corrupted chain must
// never wedge the drain. The returned slice is reused by the next Kick.
func (q *Queue) Kick(tl *simtime.Timeline) ([]error, error) {
	chains := q.pending
	if len(chains) == 0 {
		return nil, nil
	}
	if q.handler == nil {
		return nil, ErrNoHandler
	}
	q.kicks.Add(1)
	q.cKicks.Inc()
	if cap(q.errs) < len(chains) {
		q.errs = make([]error, len(chains))
	}
	errs := q.errs[:len(chains)]
	clear(errs)
	q.live, q.liveIdx = q.live[:0], q.liveIdx[:0]
	for i, c := range chains {
		q.submitted.Add(1)
		q.cChains.Inc()
		q.cDescs.Add(int64(len(c.Descs)))
		if q.fault != nil {
			if ferr := q.fault(q.name, c); ferr != nil {
				errs[i] = fmt.Errorf("%w: %v", ErrDeviceFailed, ferr)
				continue
			}
		}
		q.live = append(q.live, c)
		q.liveIdx = append(q.liveIdx, i)
	}
	if len(q.live) > 0 {
		for i, err := range q.handler(q.live, tl) {
			if i < len(q.liveIdx) {
				errs[q.liveIdx[i]] = err
			}
		}
	}
	q.used.Add(int64(len(chains)))
	q.cUsed.Add(int64(len(chains)))
	q.pending = chains[:0]
	return errs, nil
}

// DeviceConfig is the virtio-pim configuration space: what the frontend
// reads during initialization and exposes to the guest userspace so the SDK
// configures itself identically to a native environment.
type DeviceConfig struct {
	// NumDPUs is the number of functional DPUs in the attached rank.
	NumDPUs uint32
	// FrequencyMHz is the DPU clock.
	FrequencyMHz uint32
	// MRAMBytes is the per-DPU memory bank size.
	MRAMBytes uint64
	// ClockDivision is the CI clock divider (informational).
	ClockDivision uint32
	// NumCIs is the number of control interfaces (8 chips per rank).
	NumCIs uint32
}
