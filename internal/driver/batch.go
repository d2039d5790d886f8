package driver

import (
	"encoding/binary"
	"fmt"

	"repro/internal/cost"
	"repro/internal/hostmem"
	"repro/internal/sdk"
	"repro/internal/simtime"
	"repro/internal/virtio"
)

// batchBuffer is the frontend's write aggregator (Section 4.1 "Request
// Batching"): 64 pages per DPU by default. Small write-to-rank requests are
// packed as [mramOff u64, len u64, data] records; a single flush message
// carries all of them, replacing one VMEXIT per write with one per flush.
// Flushes happen when a buffer fills or when any non-write-to-rank request
// arrives (the data is not observable until a read or a launch, which is
// what makes the deferral safe).
type batchBuffer struct {
	bufs    []hostmem.Buffer
	used    []int
	records int64
	// frozen marks a set whose pages back a staged flush chain: it must not
	// be written or reset until the window drains.
	frozen bool
}

// reset clears every staged record.
func (b *batchBuffer) reset() {
	for d := range b.used {
		b.used[d] = 0
	}
	b.records = 0
}

func newBatchBuffer(mem *hostmem.Memory, nDPUs, pages int) (*batchBuffer, error) {
	b := &batchBuffer{
		bufs: make([]hostmem.Buffer, nDPUs),
		used: make([]int, nDPUs),
	}
	for d := 0; d < nDPUs; d++ {
		buf, err := mem.Alloc(pages * hostmem.PageSize)
		if err != nil {
			return nil, fmt.Errorf("alloc batch buffer for dpu %d: %w", d, err)
		}
		b.bufs[d] = buf
	}
	return b, nil
}

// capacity reports the per-DPU batch buffer size.
func (b *batchBuffer) capacity() int { return len(b.bufs[0].Data) }

// pad8 rounds a record payload up to 8 bytes so records stay aligned.
func pad8(n int) int { return (n + 7) &^ 7 }

// batchAppend stages each entry's small write into its DPU's batch buffer,
// flushing first when a buffer would overflow. A write whose packed record
// cannot fit even an empty buffer must not be staged — the copy below would
// silently clip the payload and corrupt MRAM — so it is routed to the
// unbatched matrix path instead (after a flush, preserving write order).
func (f *Frontend) batchAppend(entries []sdk.DPUXfer, off int64, length int, tl *simtime.Timeline) error {
	need := batchRecordHeader + pad8(length)
	if need > f.batch.capacity() {
		if TestHookBatchClip {
			// Planted fault (see TestHookBatchClip): clip the record to the
			// buffer and stage it anyway, silently truncating the write.
			length = (f.batch.capacity() - batchRecordHeader) &^ 7
			need = batchRecordHeader + pad8(length)
		} else {
			f.cBatchFallbacks.Inc()
			if err := f.flushBatch(tl); err != nil {
				return err
			}
			return f.sendMatrix(virtio.OpWriteRank, entries, off, length, tl)
		}
	}
	for _, e := range entries {
		// Re-read per entry: a pipelined flush swaps in a fresh set while
		// the frozen one's pages back the staged chain.
		b := f.batch
		if e.DPU < 0 || e.DPU >= len(b.bufs) {
			return fmt.Errorf("driver: DPU %d outside batch of %d", e.DPU, len(b.bufs))
		}
		if b.used[e.DPU]+need > b.capacity() {
			if err := f.flushBatch(tl); err != nil {
				return err
			}
			b = f.batch
		}
		dst := b.bufs[e.DPU].Data[b.used[e.DPU]:]
		binary.LittleEndian.PutUint64(dst[0:], uint64(off))
		binary.LittleEndian.PutUint64(dst[8:], uint64(length))
		copy(dst[batchRecordHeader:], e.Buf.Data[:length])
		b.used[e.DPU] += need
		b.records++
		f.cBatchAppends.Inc()
		tl.Advance(f.model.BatchAppend + f.model.CopyDuration(cost.EngineC, int64(length)))
	}
	return nil
}

// dropBatch discards every staged record without shipping them: the
// detach path uses it when a flush against a dead device fails, trading
// already-unreachable data for a device that can still unlink cleanly.
// Every rotating set is cleared, frozen or not.
func (f *Frontend) dropBatch() {
	for _, b := range f.batchSets {
		b.reset()
		b.frozen = false
	}
}

// flushBatch ships every staged record in one serialized-matrix message.
// Nil-safe and a no-op when nothing is staged. The set freezes while the
// flush chain is in flight (its pages back the chain until the drain
// settles it) and a free set takes over for subsequent writes; a window of
// depth one drains at once and hands the same set back.
func (f *Frontend) flushBatch(tl *simtime.Timeline) error {
	b := f.batch
	if b == nil || b.records == 0 {
		return nil
	}
	rows := f.rowScratch[:0]
	for d, used := range b.used {
		if used == 0 {
			continue
		}
		rows = append(rows, matrixRow{dpu: d, buf: b.bufs[d], size: used, mramOff: 0})
	}
	f.rowScratch = rows[:0]
	s := f.nextSlot()
	s.flush, b.frozen = b, true
	req := virtio.Request{Op: virtio.OpWriteRank, Offset: virtio.BatchSentinel}
	if err := f.postMatrix(s, req, rows, 0, tl); err != nil {
		// A post that failed before any drain never reached the device.
		f.settle(s, err)
		return err
	}
	f.cBatchFlushes.Inc()
	nb := f.freeBatchSet()
	if nb == nil {
		// Every set is frozen behind the window; drain to recycle one.
		if err := f.drain(f.tq, tl); err != nil {
			return err
		}
		nb = f.freeBatchSet()
	}
	f.batch = nb
	return nil
}
