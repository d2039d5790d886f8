package driver

import (
	"fmt"
	"math/bits"

	"repro/internal/hostmem"
	"repro/internal/sdk"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/virtio"
)

// matrixRow is one row of the transfer matrix (Fig. 6): one DPU's data.
type matrixRow struct {
	dpu     int
	buf     hostmem.Buffer
	size    int
	mramOff int64
}

// sendMatrix serializes a uniform transfer (same offset and length on every
// DPU) into the synchronous slot and waits for it. The row slice is
// frontend scratch, sized from the DPU count at attach, so the hot path
// allocates nothing per call. A write whose rows all share one backing
// buffer travels as one broadcast row instead (bcastTargets).
func (f *Frontend) sendMatrix(op virtio.Op, entries []sdk.DPUXfer, off int64, length int, tl *simtime.Timeline) error {
	mask := f.bcastTargets(op, entries)
	if mask != 0 {
		entries = entries[:1]
	}
	rows := f.rowScratch[:0]
	for _, e := range entries {
		rows = append(rows, matrixRow{dpu: e.DPU, buf: e.Buf, size: length, mramOff: off})
	}
	f.rowScratch = rows[:0]
	req := virtio.Request{Op: op, Offset: uint64(off), Length: uint64(length)}
	if err := f.postMatrix(f.sync, req, rows, mask, tl); err != nil {
		return err
	}
	return f.drain(f.tq, tl)
}

// postMatrix serializes rows into slot s and submits the chain on the
// transferq. A non-zero mask (see bcastTargets) makes the single row a
// broadcast payload: the chain keeps the shape of a one-row matrix, the
// header carries OpWriteRankBcast and names the targets in its DPU mask,
// and page management and serialization are paid for the deduplicated row
// only. The request offset carries virtio.BatchSentinel for packed batch
// flushes.
func (f *Frontend) postMatrix(s *slot, req virtio.Request, rows []matrixRow, mask uint64, tl *simtime.Timeline) error {
	if err := f.buildMatrixDescs(s, rows, tl); err != nil {
		return err
	}
	if mask != 0 {
		req.Op, req.DPUMask = virtio.OpWriteRankBcast, mask
		f.cBcastCollapsed.Inc()
		f.cBcastRowsSaved.Add(int64(bits.OnesCount64(mask) - 1))
	}
	return f.submit(f.tq, s, req, s.body, tl)
}

// buildMatrixDescs serializes arbitrary rows into the slot's scratch set and
// leaves the descriptor chain body in s.body.
func (f *Frontend) buildMatrixDescs(s *slot, rows []matrixRow, tl *simtime.Timeline) error {
	sc := &s.scratch
	if len(rows) > len(sc.dpuMeta) {
		return fmt.Errorf("driver: %d matrix rows exceed %d DPUs", len(rows), len(sc.dpuMeta))
	}

	// Page management: the driver re-anchors the userspace pages backing
	// each row so the serialized GPAs stay valid (Fig. 13 "Page").
	totalPages := 0
	for _, row := range rows {
		b := row.buf
		b.Data = b.Data[:row.size]
		totalPages += len(b.Pages())
	}
	tl.Charge(trace.StepPage, mulDur(f.model.PageManagement, totalPages))

	// Serialization: convert the matrix into metadata + page buffers of
	// 64-bit integers (Fig. 7).
	var err error
	descs := s.body[:0]
	tl.Span(trace.StepSer, func(tl *simtime.Timeline) {
		if err = virtio.PutU64s(sc.meta.Data, []uint64{uint64(len(rows))}); err != nil {
			return
		}
		descs = append(descs, virtio.Desc{GPA: sc.meta.GPA, Len: uint32(len(sc.meta.Data))})
		for i, row := range rows {
			b := row.buf
			b.Data = b.Data[:row.size]
			pages := b.Pages()
			meta := []uint64{
				uint64(row.dpu),
				uint64(row.size),
				uint64(row.mramOff),
				uint64(len(pages)),
				b.GPA % hostmem.PageSize,
			}
			if err = virtio.PutU64s(sc.dpuMeta[i].Data, meta); err != nil {
				return
			}
			if 8*len(pages) > len(sc.pageBufs[i].Data) {
				err = fmt.Errorf("driver: row %d needs %d pages, page buffer holds %d",
					i, len(pages), len(sc.pageBufs[i].Data)/8)
				return
			}
			if err = virtio.PutU64s(sc.pageBufs[i].Data, pages); err != nil {
				return
			}
			descs = append(descs,
				virtio.Desc{GPA: sc.dpuMeta[i].GPA, Len: uint32(len(sc.dpuMeta[i].Data))},
				virtio.Desc{GPA: sc.pageBufs[i].GPA, Len: uint32(8 * len(pages)), Writable: false},
			)
		}
		tl.Advance(mulDur(f.model.SerializeDPU, len(rows)))
		tl.Advance(mulDur(f.model.SerializePage, totalPages))
		tl.Advance(f.model.VirtqueuePush)
	})
	s.body = descs
	return err
}

// mulDur multiplies a per-item cost by a count.
func mulDur(per simtime.Duration, n int) simtime.Duration {
	return per * simtime.Duration(n)
}
