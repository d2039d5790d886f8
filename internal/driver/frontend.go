// Package driver implements the vUPMEM frontend: the virtio device driver
// living in the guest kernel (Section 4.1). It exposes a rank to the guest
// userspace in safe mode, serializes transfer matrices into the virtqueue,
// and implements the two data-path optimizations the paper introduces — the
// prefetch cache for frequent small reads and request batching for frequent
// small writes — both of which exist to cut the number of guest<->VMM
// transitions, the dominant source of virtualization overhead.
package driver

import (
	"errors"
	"fmt"

	"repro/internal/cost"
	"repro/internal/hostmem"
	"repro/internal/kvm"
	"repro/internal/obs"
	"repro/internal/sdk"
	"repro/internal/simtime"
	"repro/internal/virtio"
)

// Default optimization geometry (Section 4.1).
const (
	// DefaultPrefetchPages is the prefetch cache size per DPU (16 pages).
	DefaultPrefetchPages = 16
	// DefaultBatchPages is the batch buffer size per DPU (64 pages).
	DefaultBatchPages = 64
	// DefaultPipelineDepth is the submission window size with pipelining on:
	// how many chains the frontend stages on the avail ring before it must
	// kick. Without pipelining the depth is one.
	DefaultPipelineDepth = 8
	// batchRecordHeader is the packed record header: mramOff u64 + len u64.
	batchRecordHeader = 16
)

// Options selects the frontend optimizations; Table 2 of the paper toggles
// these to isolate each optimization's effect.
type Options struct {
	// Prefetch enables the per-DPU prefetch cache for small reads.
	Prefetch bool
	// Batch enables request batching for small writes.
	Batch bool
	// PrefetchPages overrides the cache size (pages per DPU).
	PrefetchPages int
	// BatchPages overrides the batch buffer size (pages per DPU).
	BatchPages int
	// BatchThreshold is the largest per-DPU write the frontend batches.
	BatchThreshold int
	// Pipeline enables the pipelined submission window: up to
	// DefaultPipelineDepth independent chains (symbol writes and batch
	// flushes) are staged on the avail ring with notifications suppressed
	// and kicked as one window answered by one coalesced IRQ. Small writes
	// stage only through the batch buffer: without Batch they take the
	// synchronous matrix path. Off, the window depth is one: every request
	// kicks alone.
	Pipeline bool
	// Bcast enables broadcast deduplication: a write-to-rank whose rows all
	// share one backing buffer collapses to a single wire row whose targets
	// the request header's DPU mask names, paying page management,
	// serialization and translation once instead of once per DPU. Rank-side
	// byte movement is unchanged.
	Bcast bool
}

func (o Options) withDefaults() Options {
	if o.PrefetchPages == 0 {
		o.PrefetchPages = DefaultPrefetchPages
	}
	if o.BatchPages == 0 {
		o.BatchPages = DefaultBatchPages
	}
	if o.BatchThreshold == 0 {
		o.BatchThreshold = 16 << 10
	}
	return o
}

// Errors reported by the frontend.
var (
	ErrNotAttached = errors.New("driver: vUPMEM device has no physical rank attached")
	ErrDeviceError = errors.New("driver: device reported failure")
)

// Frontend is one vUPMEM device's guest driver. It implements sdk.Device:
// the guest userspace SDK drives it exactly like a native rank (safe mode
// through the device file), which is the transparency requirement R3.
type Frontend struct {
	id    string
	mem   *hostmem.Memory
	path  *kvm.Path
	tq    *virtio.Queue
	cq    *virtio.Queue
	model cost.Model
	opts  Options

	attached bool
	cfg      virtio.DeviceConfig

	// Guest kernel buffers. They live as long as the device: the
	// synchronous slot's descriptors and the config buffer are allocated at
	// the first attach, everything sized by the rank geometry when a
	// geometry is first seen, and a re-attach to a rank of the same geometry
	// reuses them all (the guest allocator never frees).
	sync   *slot
	cfgBuf hostmem.Buffer
	sized  geometry
	// rowScratch is the reusable matrix row slice requests build.
	rowScratch []matrixRow

	cache *prefetchCache
	batch *batchBuffer
	// Submission window state: the staging slots (pipelining only), the
	// chains currently published on the avail ring, and — with batching on
	// — the rotating batch sets whose frozen members back staged flushes.
	pipe      []*slot
	staged    []stagedChain
	batchSets []*batchBuffer
	// booted records whether the loaded program's per-DPU CI boot sequence
	// has run (cleared by LoadProgram).
	booted bool

	// Registry-backed counters. New binds them into a private registry so a
	// standalone frontend still counts; the VMM rebinds them into the per-VM
	// registry via SetObs.
	rec             *obs.Recorder
	cMessages       *obs.Counter
	cControlRTs     *obs.Counter
	cCacheLookups   *obs.Counter
	cCacheHits      *obs.Counter
	cCacheMisses    *obs.Counter
	cBatchAppends   *obs.Counter
	cBatchFlushes   *obs.Counter
	cBatchFallbacks *obs.Counter
	cBcastCollapsed *obs.Counter
	cBcastRowsSaved *obs.Counter
}

// TestHookBatchClip re-introduces the pre-fix batch clipping bug for
// harness validation: oversized batch records are silently clipped to the
// buffer instead of falling back to the matrix path, corrupting MRAM
// contents without any error. Only conformance tests set this, to prove
// the differential harness catches a planted silent-corruption fault; it
// must never be set outside tests.
var TestHookBatchClip bool

// geometry is the rank shape the frontend's guest buffers are sized for.
type geometry struct {
	dpus      uint32
	mramBytes uint64
}

var _ sdk.Device = (*Frontend)(nil)

// New creates the frontend for one vUPMEM device. mem is the guest RAM, path
// the VM's hypervisor transition layer, and tq/cq the device's transferq and
// controlq. The backend must already be wired as the queues' handler.
func New(id string, mem *hostmem.Memory, path *kvm.Path, tq, cq *virtio.Queue, model cost.Model, opts Options) *Frontend {
	f := &Frontend{
		id:    id,
		mem:   mem,
		path:  path,
		tq:    tq,
		cq:    cq,
		model: model,
		opts:  opts.withDefaults(),
	}
	f.SetObs(obs.NewRegistry(), nil)
	return f
}

// SetObs rebinds the frontend's counters into reg (tagged with the device
// ID so per-device values survive aggregation) and attaches the VM's span
// recorder. The VMM calls this during device realization to pool every
// layer into one per-VM registry.
func (f *Frontend) SetObs(reg *obs.Registry, rec *obs.Recorder) {
	tag := "#" + f.id
	f.rec = rec
	f.cMessages = reg.Counter("frontend.messages" + tag)
	f.cControlRTs = reg.Counter("frontend.control.roundtrips" + tag)
	f.cCacheLookups = reg.Counter("frontend.cache.lookups" + tag)
	f.cCacheHits = reg.Counter("frontend.cache.hits" + tag)
	f.cCacheMisses = reg.Counter("frontend.cache.misses" + tag)
	f.cBatchAppends = reg.Counter("frontend.batch.appends" + tag)
	f.cBatchFlushes = reg.Counter("frontend.batch.flushes" + tag)
	f.cBatchFallbacks = reg.Counter("frontend.batch.fallbacks" + tag)
	f.cBcastCollapsed = reg.Counter("frontend.bcast.collapsed" + tag)
	f.cBcastRowsSaved = reg.Counter("frontend.bcast.rows_saved" + tag)
}

// ID reports the device identifier (used as the manager owner string).
func (f *Frontend) ID() string { return f.id }

// Attached reports whether a physical rank is currently linked.
func (f *Frontend) Attached() bool { return f.attached }

// NumDPUs implements sdk.Device (valid after attach).
func (f *Frontend) NumDPUs() int { return int(f.cfg.NumDPUs) }

// MRAMBytes implements sdk.Device.
func (f *Frontend) MRAMBytes() int64 { return int64(f.cfg.MRAMBytes) }

// FrequencyMHz implements sdk.Device.
func (f *Frontend) FrequencyMHz() int { return int(f.cfg.FrequencyMHz) }

// Attach links the device to a physical rank through the backend and the
// manager, then performs device initialization: the configuration request
// and the scratch/cache/batch buffer setup (Section 3.2). It is all or
// nothing: when any step after the rank grant fails, the rank goes back over
// the controlq and the device stays detached.
func (f *Frontend) Attach(tl *simtime.Timeline) error {
	if f.attached {
		return nil
	}
	if f.sync == nil {
		s, err := newSlot(f.mem)
		if err != nil {
			return fmt.Errorf("alloc request buffers: %w", err)
		}
		cfgBuf, err := f.mem.Alloc(virtio.ConfigResponseSize)
		if err != nil {
			return fmt.Errorf("alloc config buffer: %w", err)
		}
		f.sync, f.cfgBuf = s, cfgBuf
	}
	// Rank attachment goes through the controlq: it synchronizes with the
	// manager rather than moving data.
	if err := f.control(virtio.OpAttach, tl); err != nil {
		return err
	}
	if err := f.configure(tl); err != nil {
		if rerr := f.control(virtio.OpRelease, tl); rerr != nil {
			return fmt.Errorf("%w (releasing the rank: %v)", err, rerr)
		}
		return err
	}
	f.attached = true
	return nil
}

// configure sends the configuration request over the transferq and sizes
// the guest buffers for the rank geometry it reports.
func (f *Frontend) configure(tl *simtime.Timeline) error {
	if _, err := f.roundTrip(f.tq, virtio.Request{Op: virtio.OpConfig}, []virtio.Desc{
		{GPA: f.cfgBuf.GPA, Len: uint32(len(f.cfgBuf.Data)), Writable: true},
	}, tl); err != nil {
		return err
	}
	cfg, err := virtio.DecodeConfig(f.cfgBuf.Data)
	if err != nil {
		return err
	}
	f.cfg = cfg
	return f.setupBuffers()
}

// setupBuffers allocates the serialization scratch, the symbol page, the
// prefetch cache, the batch buffer and the staging slots for the rank
// geometry, unless they already exist for it. A failed build leaves no
// geometry recorded, so the next attach rebuilds from scratch.
func (f *Frontend) setupBuffers() error {
	geom := geometry{dpus: f.cfg.NumDPUs, mramBytes: f.cfg.MRAMBytes}
	if geom == f.sized {
		return nil
	}
	f.sized = geometry{}
	nDPUs := int(f.cfg.NumDPUs)
	pagesPerDPU := int((f.cfg.MRAMBytes + hostmem.PageSize - 1) / hostmem.PageSize)

	if err := f.sync.size(f.mem, nDPUs, pagesPerDPU); err != nil {
		return err
	}
	f.rowScratch = make([]matrixRow, 0, nDPUs)
	var err error
	if f.opts.Prefetch {
		if f.cache, err = newPrefetchCache(f.mem, nDPUs, f.opts.PrefetchPages); err != nil {
			return err
		}
	}
	if f.opts.Batch {
		if f.batch, err = newBatchBuffer(f.mem, nDPUs, f.opts.BatchPages); err != nil {
			return err
		}
		f.batchSets = []*batchBuffer{f.batch}
	}
	if f.opts.Pipeline {
		if err = f.setupPipeline(); err != nil {
			return err
		}
	}
	f.sized = geom
	return nil
}

// MemoryOverheadBytes reports the frontend's per-DPU extra memory: the
// serialized page table, the prefetch cache and the batch buffer
// (Section 4.1 "Memory Overhead").
func (f *Frontend) MemoryOverheadBytes() int64 {
	if !f.attached {
		return 0
	}
	pagesPerDPU := int64((f.cfg.MRAMBytes + hostmem.PageSize - 1) / hostmem.PageSize)
	total := 8 * pagesPerDPU // page buffer: one u64 GPA per page
	if f.opts.Prefetch {
		total += int64(f.opts.PrefetchPages) * hostmem.PageSize
	}
	if f.opts.Batch {
		sets := int64(1)
		if f.opts.Pipeline {
			// One batch set per window slot keeps flushed pages intact
			// until the drain.
			sets = DefaultPipelineDepth
		}
		total += sets * int64(f.opts.BatchPages) * hostmem.PageSize
	}
	if f.opts.Pipeline {
		total += DefaultPipelineDepth * hostmem.PageSize // staged symbol payloads
	}
	return total
}

// control sends one payload-less request over the controlq: the
// manager-synchronization message shape used by attach and detach. The
// transferq window drains first, so the device sees every data chain before
// the sync.
func (f *Frontend) control(op virtio.Op, tl *simtime.Timeline) error {
	if err := f.drain(f.tq, tl); err != nil {
		return err
	}
	f.cControlRTs.Inc()
	_, err := f.roundTrip(f.cq, virtio.Request{Op: op}, nil, tl)
	return err
}

// Detach unlinks the physical rank through the controlq — the inverse of
// Attach's manager synchronization. Release and the VMM's unwinding of a
// partially-booked allocation both end here. The batch flush and the window
// drain are best-effort: the device is being unlinked, so when either fails
// (the physical rank died mid-run, or a staged chain was rejected) the
// staged records are dropped and the rank still goes back. A device that
// kept its rank until a flush succeeded could never hand back a rank whose
// pending write can never land, and a freed set would leak it for good. The
// first such failure is returned once the rank is released.
func (f *Frontend) Detach(tl *simtime.Timeline) error {
	if !f.attached {
		return nil
	}
	pending := f.flushBatch(tl)
	if err := f.drain(f.tq, tl); pending == nil {
		pending = err
	}
	if pending != nil {
		f.dropBatch()
	}
	f.cache.invalidate()
	if err := f.control(virtio.OpRelease, tl); err != nil {
		return err
	}
	f.attached = false
	return pending
}

func (f *Frontend) ensureAttached(tl *simtime.Timeline) error {
	if f.attached {
		return nil
	}
	return f.Attach(tl)
}
