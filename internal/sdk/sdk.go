// Package sdk reproduces the host-side UPMEM SDK programming interface:
// DPU-set allocation, binary loading, prepared/push transfers, synchronous
// launch and per-DPU copies (Fig. 2a of the paper shows the C original).
//
// Applications written against this package run unmodified on native
// hardware (performance mode: the Device is a rank accessed directly) and
// inside a VM (safe mode: the Device is the vUPMEM frontend driver). That is
// the transparency requirement R3: the same PrIM code exercises both paths.
package sdk

import (
	"errors"

	"repro/internal/hostmem"
	"repro/internal/simtime"
)

// MRAMHeap is the transfer symbol for the MRAM heap
// (DPU_MRAM_HEAP_POINTER_NAME in the UPMEM SDK).
const MRAMHeap = "__sys_used_mram_end"

// Direction selects the transfer direction of a push transfer.
type Direction int

const (
	// ToDPU copies host buffers into MRAM (DPU_XFER_TO_DPU).
	ToDPU Direction = iota + 1
	// FromDPU copies MRAM into host buffers (DPU_XFER_FROM_DPU).
	FromDPU
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case ToDPU:
		return "to-dpu"
	case FromDPU:
		return "from-dpu"
	default:
		return "unknown"
	}
}

// Errors reported by the SDK layer.
var (
	ErrNoBuffer       = errors.New("sdk: no prepared buffer for DPU")
	ErrBufferTooSmall = errors.New("sdk: prepared buffer smaller than transfer length")
	ErrFreed          = errors.New("sdk: DPU set already freed")
	ErrNotEnoughDPUs  = errors.New("sdk: not enough DPUs available")
)

// DPUXfer is one DPU's slice of a rank transfer: the guest/host buffer that
// DPU's data lives in. It is one row of the paper's transfer matrix (Fig 6).
type DPUXfer struct {
	// DPU is the rank-local DPU index.
	DPU int
	// Buf is the host-side data (page-aligned guest memory under
	// virtualization, plain host memory natively).
	Buf hostmem.Buffer
}

// Device is one allocated rank as the SDK sees it. The native implementation
// (performance mode) maps the rank directly; the virtualized implementation
// is the vUPMEM frontend driver (safe mode).
//
// All methods advance the supplied timeline by the operation's virtual cost.
type Device interface {
	// NumDPUs reports the rank's functional DPU count.
	NumDPUs() int
	// MRAMBytes reports the per-DPU MRAM size.
	MRAMBytes() int64
	// FrequencyMHz reports the DPU clock.
	FrequencyMHz() int

	// LoadProgram loads the named DPU binary on every DPU of the rank.
	LoadProgram(name string, tl *simtime.Timeline) error
	// WriteRank performs a write-to-rank: each entry's buffer is copied
	// into that DPU's MRAM at [offset, offset+length).
	WriteRank(entries []DPUXfer, offset int64, length int, tl *simtime.Timeline) error
	// ReadRank performs a read-from-rank into the entry buffers.
	ReadRank(entries []DPUXfer, offset int64, length int, tl *simtime.Timeline) error
	// SymWrite writes a host (__host) symbol on one DPU.
	SymWrite(dpu int, symbol string, off int, src []byte, tl *simtime.Timeline) error
	// SymBroadcast writes the same host symbol value on every DPU of the
	// rank in one operation (dpu_broadcast_to).
	SymBroadcast(symbol string, off int, src []byte, tl *simtime.Timeline) error
	// SymRead reads a host symbol from one DPU.
	SymRead(dpu int, symbol string, off int, dst []byte, tl *simtime.Timeline) error
	// Launch synchronously runs the loaded program on the listed DPUs.
	Launch(dpus []int, tl *simtime.Timeline) error
	// LaunchStart boots the program asynchronously (DPU_ASYNCHRONOUS) and
	// returns the virtual instant the DPUs will finish; the caller overlaps
	// host work and later waits with the Set's Sync.
	LaunchStart(dpus []int, tl *simtime.Timeline) (simtime.Duration, error)
	// Release detaches the rank (dpu_free).
	Release(tl *simtime.Timeline) error
}

// Allocator hands out rank devices; the native environment allocates
// directly from the machine, the guest environment through vUPMEM devices
// backed by the manager.
type Allocator interface {
	// AllocRanks returns enough devices to cover nrDPUs DPUs.
	AllocRanks(nrDPUs int, tl *simtime.Timeline) ([]Device, error)
}

// Env is the execution environment handed to applications: it provides DPU
// allocation, host buffer allocation and the virtual timeline. The same
// application code receives a native Env or a VM Env.
type Env interface {
	// AllocSet allocates nrDPUs DPUs (dpu_alloc).
	AllocSet(nrDPUs int) (*Set, error)
	// AllocBuffer allocates page-aligned application memory.
	AllocBuffer(n int) (hostmem.Buffer, error)
	// FreeBuffer releases a buffer AllocBuffer returned; its memory must
	// not be used afterwards. Memory is reused when buffers are freed in
	// the reverse order of their allocation, as a run frees its own
	// buffers; a buffer freed below a live one leaves a hole that is
	// reused only once everything above it is freed too. Freeing a buffer
	// twice fails.
	FreeBuffer(buf hostmem.Buffer) error
	// Timeline is the environment's virtual clock.
	Timeline() *simtime.Timeline
	// Tracker is the breakdown accumulator attached to the timeline.
	Tracker() *simtime.Tracker
}

// Phase runs fn and attributes all virtual time it spends to the named
// application phase (trace.Phase*); the helper every PrIM port uses to
// produce the Fig. 8 segmentation.
func Phase(tl *simtime.Timeline, phase string, fn func() error) error {
	var err error
	tl.Span(phase, func(*simtime.Timeline) {
		err = fn()
	})
	return err
}
