package pim

import (
	"bytes"
	"time"

	"repro/internal/cost"
)

// Snapshot captures a rank's tenant-visible state: MRAM contents, loaded
// programs and host symbol values. It enables the checkpoint/restore
// mechanism the paper's conclusion proposes for dynamic workload
// consolidation without hardware support ("efficient pause-resume and
// checkpoint-restore mechanisms could enable dynamic workload
// consolidation").
type Snapshot struct {
	dpus      int
	mramBytes int64
	chunks    []*chunk
	programs  []*Kernel
	symbols   []map[string][]byte
}

// DPUs reports the snapshot's DPU count.
func (s *Snapshot) DPUs() int { return s.dpus }

// MRAMBytes reports the snapshot's per-DPU MRAM size.
func (s *Snapshot) MRAMBytes() int64 { return s.mramBytes }

// CommittedBytes reports how much MRAM data the snapshot actually carries
// (the checkpoint cost is proportional to it).
func (s *Snapshot) CommittedBytes() int64 {
	var n int64
	for _, c := range s.chunks {
		if c != nil {
			n += physChunkBytes
		}
	}
	return n
}

// Checkpoint captures the rank's state. The rank must be idle (no launch in
// flight); UPMEM cannot pause a running task, so checkpoints happen between
// launches. The returned duration is the virtual copy cost.
//
// The snapshot shares the rank's MRAM chunks instead of copying them: each
// committed chunk is marked shared, and the rank's next write to it copies
// the bytes first. The host work is O(chunks); the virtual clock still
// charges the full copy the hardware would make.
func (r *Rank) Checkpoint() (*Snapshot, time.Duration, error) {
	if !r.busy.CompareAndSwap(false, true) {
		return nil, 0, ErrBusy
	}
	defer r.busy.Store(false)

	snap := &Snapshot{
		dpus:      r.cfg.DPUs,
		mramBytes: r.cfg.MRAMBytes,
		symbols:   make([]map[string][]byte, r.cfg.DPUs),
		programs:  make([]*Kernel, r.cfg.DPUs),
	}
	snap.chunks = make([]*chunk, len(r.chunks))
	for i := range r.chunks {
		if c := r.chunks[i].Load(); c != nil {
			c.shared.Store(true)
			snap.chunks[i] = c
		}
	}
	for d := range r.dpus {
		st := &r.dpus[d]
		st.mu.Lock()
		snap.programs[d] = st.kernel
		snap.symbols[d] = cloneSymbols(st.symbols)
		st.mu.Unlock()
	}
	return snap, r.model.CopyDuration(cost.EngineC, snap.CommittedBytes()), nil
}

// Restore installs a snapshot onto this rank (the destination of a
// migration). The geometries must match. The returned duration is the
// virtual copy cost. The rank takes the snapshot's shared chunks, and a
// chunk the snapshot lacks reads as zeros whatever the rank held there.
func (r *Rank) Restore(snap *Snapshot) (time.Duration, error) {
	if snap.dpus != r.cfg.DPUs || snap.mramBytes != r.cfg.MRAMBytes {
		return 0, ErrOutOfRange
	}
	if !r.busy.CompareAndSwap(false, true) {
		return 0, ErrBusy
	}
	defer r.busy.Store(false)

	for i, c := range snap.chunks {
		r.chunks[i].Store(c)
	}
	for d := range r.dpus {
		st := &r.dpus[d]
		st.mu.Lock()
		st.kernel = snap.programs[d]
		st.symbols = cloneSymbols(snap.symbols[d])
		st.mu.Unlock()
	}
	return r.model.CopyDuration(cost.EngineC, snap.CommittedBytes()), nil
}

// cloneSymbols copies a DPU's host symbol values; nil stays nil. Symbols
// are a few bytes each, so unlike MRAM they are copied, not shared.
func cloneSymbols(syms map[string][]byte) map[string][]byte {
	if syms == nil {
		return nil
	}
	out := make(map[string][]byte, len(syms))
	for name, buf := range syms {
		out[name] = bytes.Clone(buf)
	}
	return out
}
