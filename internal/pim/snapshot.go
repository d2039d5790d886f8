package pim

import (
	"bytes"
	"math/bits"
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
	mramBytes int64
	dpus      []dpuSnapshot
	footprint []uint64
}

// dpuSnapshot is one DPU's captured state.
type dpuSnapshot struct {
	bank    *bank
	program *Kernel
	symbols map[string][]byte
}

// DPUs reports the snapshot's DPU count.
func (s *Snapshot) DPUs() int { return len(s.dpus) }

// MRAMBytes reports the snapshot's per-DPU MRAM size.
func (s *Snapshot) MRAMBytes() int64 { return s.mramBytes }

// CommittedBytes reports how much MRAM data the snapshot carries, counted
// as the chunks the rank's interleaved physical layout commits (the
// checkpoint cost is proportional to it).
func (s *Snapshot) CommittedBytes() int64 {
	var n int
	for _, w := range s.footprint {
		n += bits.OnesCount64(w)
	}
	return int64(n) * footprintChunkBytes
}

// Checkpoint captures the rank's state. The rank must be idle (no launch in
// flight); UPMEM cannot pause a running task, so checkpoints happen between
// launches. The returned duration is the virtual copy cost.
//
// The snapshot shares the DPUs' MRAM banks instead of copying them: each
// bank is marked shared, and a DPU's next write copies its table, then the
// chunk it writes. The host work is O(DPUs); the virtual clock still
// charges the full copy the hardware would make.
func (r *Rank) Checkpoint() (*Snapshot, time.Duration, error) {
	if !r.busy.CompareAndSwap(false, true) {
		return nil, 0, ErrBusy
	}
	defer r.busy.Store(false)

	snap := &Snapshot{
		mramBytes: r.cfg.MRAMBytes,
		dpus:      make([]dpuSnapshot, r.cfg.DPUs),
		footprint: make([]uint64, len(r.footprint)),
	}
	for i := range r.footprint {
		snap.footprint[i] = r.footprint[i].Load()
	}
	for d := range r.dpus {
		st, ds := &r.dpus[d], &snap.dpus[d]
		if ds.bank = st.bank.Load(); ds.bank != nil {
			ds.bank.shared.Store(true)
		}
		st.mu.Lock()
		ds.program = st.kernel
		ds.symbols = cloneSymbols(st.symbols)
		st.mu.Unlock()
	}
	return snap, r.model.CopyDuration(cost.EngineC, snap.CommittedBytes()), nil
}

// Restore installs a snapshot onto this rank (the destination of a
// migration). The geometries must match. The returned duration is the
// virtual copy cost. The rank takes the snapshot's shared banks, and a
// chunk the snapshot lacks reads as zeros whatever the rank held there.
func (r *Rank) Restore(snap *Snapshot) (time.Duration, error) {
	if len(snap.dpus) != r.cfg.DPUs || snap.mramBytes != r.cfg.MRAMBytes {
		return 0, ErrOutOfRange
	}
	if !r.busy.CompareAndSwap(false, true) {
		return 0, ErrBusy
	}
	defer r.busy.Store(false)

	for i, w := range snap.footprint {
		r.footprint[i].Store(w)
	}
	for d := range r.dpus {
		st, ds := &r.dpus[d], &snap.dpus[d]
		st.bank.Store(ds.bank)
		st.mu.Lock()
		st.kernel = ds.program
		st.symbols = cloneSymbols(ds.symbols)
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
