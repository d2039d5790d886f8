package pim

import (
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
	chunks    []*physChunk
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

// cloneChunk copies a committed chunk, or returns nil for an uncommitted
// one. append allocates without zeroing the bytes it then overwrites,
// unlike new followed by copy.
func cloneChunk(c *physChunk) *physChunk {
	if c == nil {
		return nil
	}
	return (*physChunk)(append([]byte(nil), c[:]...))
}

// Checkpoint captures the rank's state. The rank must be idle (no launch in
// flight); UPMEM cannot pause a running task, so checkpoints happen between
// launches. The returned duration is the virtual copy cost.
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
	snap.chunks = make([]*physChunk, len(r.chunks))
	for i := range r.chunks {
		snap.chunks[i] = cloneChunk(r.chunks[i].Load())
	}
	for d := range r.dpus {
		st := &r.dpus[d]
		st.mu.Lock()
		snap.programs[d] = st.kernel
		if st.symbols != nil {
			syms := make(map[string][]byte, len(st.symbols))
			for name, buf := range st.symbols {
				syms[name] = append([]byte(nil), buf...)
			}
			snap.symbols[d] = syms
		}
		st.mu.Unlock()
	}
	return snap, r.model.CopyDuration(cost.EngineC, snap.CommittedBytes()), nil
}

// Restore installs a snapshot onto this rank (the destination of a
// migration). The geometries must match. The returned duration is the
// virtual copy cost.
func (r *Rank) Restore(snap *Snapshot) (time.Duration, error) {
	if snap.dpus != r.cfg.DPUs || snap.mramBytes != r.cfg.MRAMBytes {
		return 0, ErrOutOfRange
	}
	if !r.busy.CompareAndSwap(false, true) {
		return 0, ErrBusy
	}
	defer r.busy.Store(false)

	for i, c := range snap.chunks {
		r.chunks[i].Store(cloneChunk(c))
	}
	for d := range r.dpus {
		st := &r.dpus[d]
		st.mu.Lock()
		st.kernel = snap.programs[d]
		if snap.symbols[d] != nil {
			syms := make(map[string][]byte, len(snap.symbols[d]))
			for name, buf := range snap.symbols[d] {
				syms[name] = append([]byte(nil), buf...)
			}
			st.symbols = syms
		} else {
			st.symbols = nil
		}
		st.mu.Unlock()
	}
	return r.model.CopyDuration(cost.EngineC, snap.CommittedBytes()), nil
}
