package driver

import (
	"encoding/binary"
	"fmt"

	"repro/internal/hostmem"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/virtio"
)

// This file implements the frontend's one submission path: every request is
// encoded into a slot, staged on its virtqueue's avail ring and drained by
// one kick — event-idx-style notification suppression — and the device
// answers the whole window with one coalesced completion IRQ. A synchronous
// request (a read, a launch, a CI command, a control round trip) is the last
// chain of the window it drains, so device-visible ordering is exactly the
// submission order. Without pipelining the window depth is one and every
// request kicks alone. With it, chains whose results the guest does not
// need yet (symbol writes and batch flushes) stay staged, up to
// DefaultPipelineDepth per kick: the window replaces N guest<->VMM round
// trips (the dominant virtualization cost, Fig. 13) with one, without moving
// a single byte differently.

// matrixScratch is one set of serialization buffers for a transfer matrix:
// the row-count word, the per-DPU metadata and the per-DPU page vectors
// (Fig. 7).
type matrixScratch struct {
	meta     hostmem.Buffer
	dpuMeta  []hostmem.Buffer
	pageBufs []hostmem.Buffer
}

func newMatrixScratch(mem *hostmem.Memory, nDPUs, pagesPerDPU int) (matrixScratch, error) {
	var sc matrixScratch
	var err error
	if sc.meta, err = mem.Alloc(8 * virtio.MatrixMetaWords); err != nil {
		return sc, err
	}
	sc.dpuMeta = make([]hostmem.Buffer, nDPUs)
	sc.pageBufs = make([]hostmem.Buffer, nDPUs)
	for d := 0; d < nDPUs; d++ {
		if sc.dpuMeta[d], err = mem.Alloc(8 * virtio.DPUMetaWords); err != nil {
			return sc, err
		}
		if sc.pageBufs[d], err = mem.Alloc(8 * pagesPerDPU); err != nil {
			return sc, err
		}
	}
	return sc, nil
}

// slot is the guest memory behind one request chain: its header and status
// descriptors (per-chain status is what lets one failing chain fail alone),
// a symbol payload page and a matrix scratch set. The frontend owns one
// synchronous slot, whose page vectors span a DPU's whole MRAM, and with
// pipelining DefaultPipelineDepth staging slots sized for the chains that
// stay staged. A slot is reused once the window holding its chain has
// drained.
type slot struct {
	hdr     hostmem.Buffer
	status  hostmem.Buffer
	sym     hostmem.Buffer
	scratch matrixScratch
	// body and chain are rebuilt in place by each request, so publishing a
	// chain allocates nothing.
	body  []virtio.Desc
	chain virtio.Chain
	// flush is the frozen batch set whose records the chain carries, until
	// the drain settles it (batch flushes only).
	flush *batchBuffer
}

// newSlot allocates a slot's header and status descriptors.
func newSlot(mem *hostmem.Memory) (*slot, error) {
	s := &slot{}
	var err error
	if s.hdr, err = mem.Alloc(256); err != nil {
		return nil, err
	}
	if s.status, err = mem.Alloc(64); err != nil {
		return nil, err
	}
	return s, nil
}

// size allocates the slot's symbol page and a matrix scratch set whose page
// vectors hold pagesPerDPU pages per row.
func (s *slot) size(mem *hostmem.Memory, nDPUs, pagesPerDPU int) error {
	var err error
	if s.sym, err = mem.Alloc(hostmem.PageSize); err != nil {
		return err
	}
	s.scratch, err = newMatrixScratch(mem, nDPUs, pagesPerDPU)
	return err
}

// stagedChain tracks one chain published on the avail ring but not yet
// kicked, so the drain can check its status word and thread its trace event.
type stagedChain struct {
	op    virtio.Op
	reqID int64
	slot  *slot
	start simtime.Duration
}

// depth reports the submission window size: how many chains may wait on the
// avail ring before the frontend must kick.
func (f *Frontend) depth() int {
	if f.opts.Pipeline {
		return DefaultPipelineDepth
	}
	return 1
}

// nextSlot returns the slot backing the next chain that may stay staged: a
// staging slot with pipelining, else the synchronous slot, whose window of
// depth one drains at once. Safe because submit drains at depth, so
// len(staged) < len(pipe) always holds here.
func (f *Frontend) nextSlot() *slot {
	if len(f.pipe) == 0 {
		return f.sync
	}
	return f.pipe[len(f.staged)]
}

// setupPipeline allocates the staging slots (and the extra batch sets that
// let flushed data survive until the drain) once the rank geometry is known.
func (f *Frontend) setupPipeline() error {
	nDPUs := int(f.cfg.NumDPUs)
	// The only matrix chain that stays staged is a batch flush, whose rows
	// hold BatchPages pages each; two pages of slack cover unaligned
	// buffers.
	slotPages := f.opts.BatchPages + 2
	f.pipe = make([]*slot, DefaultPipelineDepth)
	for i := range f.pipe {
		s, err := newSlot(f.mem)
		if err != nil {
			return err
		}
		if err := s.size(f.mem, nDPUs, slotPages); err != nil {
			return err
		}
		f.pipe[i] = s
	}
	for f.batch != nil && len(f.batchSets) < DefaultPipelineDepth {
		nb, err := newBatchBuffer(f.mem, nDPUs, f.opts.BatchPages)
		if err != nil {
			return err
		}
		f.batchSets = append(f.batchSets, nb)
	}
	return nil
}

// submit publishes one request chain from slot s on q's avail ring: encode
// the header, poison the status word (a chain the device never reaches reads
// as a failure, not stale success) and frame body between the header and
// status descriptors. A window that reaches its depth drains at once.
func (f *Frontend) submit(q *virtio.Queue, s *slot, req virtio.Request, body []virtio.Desc, tl *simtime.Timeline) error {
	n, err := req.Encode(s.hdr.Data)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(s.status.Data, uint64(virtio.StatusError))
	descs := append(s.chain.Descs[:0], virtio.Desc{GPA: s.hdr.GPA, Len: uint32(n)})
	descs = append(descs, body...)
	s.chain.Descs = append(descs, virtio.Desc{GPA: s.status.GPA, Len: uint32(len(s.status.Data)), Writable: true})

	f.cMessages.Inc()
	s.chain.ReqID = f.rec.NextRequestID()
	if err := q.Stage(&s.chain); err != nil {
		return err
	}
	f.staged = append(f.staged, stagedChain{op: req.Op, reqID: s.chain.ReqID, slot: s, start: tl.Now()})
	if len(f.staged) >= f.depth() {
		return f.drain(q, tl)
	}
	return nil
}

// roundTrip sends a synchronous request: req rides the synchronous slot as
// the last chain of q's window, which drains before it returns. It returns a
// copy of the device-written response payload — the status buffer is reused
// by the next request, so the caller owns the returned slice.
func (f *Frontend) roundTrip(q *virtio.Queue, req virtio.Request, body []virtio.Desc, tl *simtime.Timeline) ([]byte, error) {
	if err := f.submit(q, f.sync, req, body, tl); err != nil {
		return nil, err
	}
	if err := f.drain(q, tl); err != nil {
		return nil, err
	}
	out := make([]byte, len(f.sync.status.Data)-8)
	copy(out, f.sync.status.Data[8:])
	return out, nil
}

// drain kicks q once and completes the whole staged window. One GuestToVMM
// covers the kick; the N-1 notifications the window avoided are accounted
// as suppressed exits, and the N-1 completion interrupts the device merged
// away as coalesced IRQs — observable, but never charged time. Returns the
// first failing chain's error; a chain staged ahead of the synchronous
// request is named as pipelined.
func (f *Frontend) drain(q *virtio.Queue, tl *simtime.Timeline) error {
	staged := f.staged
	if len(staged) == 0 {
		return nil
	}
	f.staged = staged[:0]
	n := int64(len(staged))
	f.path.GuestToVMM(tl)
	f.path.SuppressNotify(n - 1)
	errs, err := q.Kick(tl)
	if err != nil {
		for _, sc := range staged {
			f.settle(sc.slot, err)
		}
		return err
	}
	f.path.VMMToGuest(tl)
	f.path.CoalesceIRQs(n - 1)

	var firstErr error
	for i, sc := range staged {
		cerr := errs[i]
		if cerr == nil && uint32(binary.LittleEndian.Uint64(sc.slot.status.Data)) != virtio.StatusOK {
			cerr = fmt.Errorf("%w: op %v", ErrDeviceError, sc.op)
		}
		f.settle(sc.slot, cerr)
		f.rec.Record(obs.Event{
			Name: sc.op.String(), Cat: "guest", TID: obs.LaneGuest,
			Req: sc.reqID, Start: sc.start, Dur: tl.Now() - sc.start,
		})
		if cerr != nil && firstErr == nil {
			if sc.slot != f.sync {
				cerr = fmt.Errorf("driver: pipelined %v: %w", sc.op, cerr)
			}
			firstErr = cerr
		}
	}
	return firstErr
}

// settle thaws the batch set a slot's flush chain carried once the chain is
// done. A failed flush keeps its records for a retry while its set is still
// the one taking writes — no newer record can then overtake them; otherwise
// the records are dropped with the failed chain.
func (f *Frontend) settle(s *slot, err error) {
	b := s.flush
	if b == nil {
		return
	}
	s.flush, b.frozen = nil, false
	if err == nil || b != f.batch {
		b.reset()
	}
}

// freeBatchSet returns an unfrozen batch set, or nil if every set is backing
// a staged flush.
func (f *Frontend) freeBatchSet() *batchBuffer {
	for _, b := range f.batchSets {
		if !b.frozen {
			return b
		}
	}
	return nil
}
