package driver

import (
	"repro/internal/sdk"
	"repro/internal/virtio"
)

// This file implements broadcast deduplication: when the guest prepared the
// same backing buffer for several DPUs (dpu_prepare_xfer with one pointer, a
// common idiom for distributing lookup tables or model weights), the transfer
// matrix's rows are byte-identical. The frontend collapses them into one wire
// row plus a compact fan-out descriptor (postMatrix), so page management,
// serialization, virtqueue descriptors and the backend's GPA->HVA
// translation are paid once instead of once per DPU. Only the host-side
// bookkeeping shrinks: the rank still receives every replica's bytes, so
// rank-side byte movement (and its virtual time) is identical to the per-DPU
// path.

// bcastTargets reports whether the uniform transfer is a broadcast — a
// write-to-rank of one backing buffer to two or more distinct DPUs — and
// returns the fan-out id list (frontend scratch, valid until the next call).
// Reads never collapse: distinct DPUs reading into one buffer are racing
// writes, not duplicates. The 1-DPU degenerate stays on the plain path.
func (f *Frontend) bcastTargets(op virtio.Op, entries []sdk.DPUXfer) ([]uint32, bool) {
	if !f.opts.Bcast || op != virtio.OpWriteRank || len(entries) < 2 {
		return nil, false
	}
	first := entries[0].Buf
	ids := f.bcastIDs[:0]
	ok := true
	for _, e := range entries {
		if e.Buf.GPA != first.GPA || e.DPU < 0 || e.DPU >= len(f.bcastSeen) || f.bcastSeen[e.DPU] {
			ok = false
			break
		}
		f.bcastSeen[e.DPU] = true
		ids = append(ids, uint32(e.DPU))
	}
	for _, id := range ids {
		f.bcastSeen[id] = false
	}
	if !ok {
		return nil, false
	}
	return ids, true
}
