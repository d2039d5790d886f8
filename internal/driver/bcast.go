package driver

import (
	"repro/internal/sdk"
	"repro/internal/virtio"
)

// This file implements broadcast deduplication: when the guest prepared the
// same backing buffer for several DPUs (dpu_prepare_xfer with one pointer, a
// common idiom for distributing lookup tables or model weights), the transfer
// matrix's rows are byte-identical. The frontend collapses them into one wire
// row and names the targets in the request header's DPU mask (postMatrix),
// so page management, serialization, virtqueue descriptors and the backend's
// GPA->HVA translation are paid once instead of once per DPU. Only the
// host-side bookkeeping shrinks: the rank still receives every replica's
// bytes, so rank-side byte movement (and its virtual time) is identical to
// the per-DPU path.

// bcastTargets reports whether the uniform transfer is a broadcast — a
// write-to-rank of one backing buffer to two or more distinct DPUs — and
// returns its targets as a DPU mask (bit i = DPU i), or 0 for the plain
// path. Reads never collapse: distinct DPUs reading into one buffer are
// racing writes, not duplicates. The 1-DPU degenerate, a repeated DPU and a
// DPU the mask cannot name (64 or above) stay on the plain path.
func (f *Frontend) bcastTargets(op virtio.Op, entries []sdk.DPUXfer) uint64 {
	if !f.opts.Bcast || op != virtio.OpWriteRank || len(entries) < 2 {
		return 0
	}
	var mask uint64
	for _, e := range entries {
		if e.Buf.GPA != entries[0].Buf.GPA || e.DPU < 0 || e.DPU >= 64 || mask&(1<<uint(e.DPU)) != 0 {
			return 0
		}
		mask |= 1 << uint(e.DPU)
	}
	return mask
}
