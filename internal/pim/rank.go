package pim

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cost"
)

// RankConfig sizes one UPMEM rank. The zero value is replaced by defaults in
// NewRank; tests and scaled experiments shrink MRAMBytes to keep host memory
// bounded (documented substitution in DESIGN.md).
type RankConfig struct {
	// DPUs is the number of functional DPUs (<= 64). The paper's machine
	// has ranks with 60-64 functional DPUs due to defective units.
	DPUs int
	// MRAMBytes is the per-DPU MRAM bank size.
	MRAMBytes int64
	// FrequencyMHz is informational (exposed through device config).
	FrequencyMHz int
}

func (c RankConfig) withDefaults() RankConfig {
	if c.DPUs == 0 {
		c.DPUs = MaxDPUsPerRank
	}
	if c.MRAMBytes == 0 {
		c.MRAMBytes = DefaultMRAMBytes
	}
	if c.FrequencyMHz == 0 {
		c.FrequencyMHz = 350
	}
	return c
}

// CIStats counts control-interface operations issued to a rank. The paper's
// driver-centric breakdown (Fig. 12) tracks these separately from rank data
// operations.
type CIStats struct {
	ops atomic.Int64
}

// Ops reports the number of CI operations issued so far.
func (s *CIStats) Ops() int64 { return s.ops.Load() }

// dpuState is the per-DPU mutable state: the MRAM bank, and the loaded
// program and host symbols, which mu guards.
type dpuState struct {
	bank    atomic.Pointer[bank]
	mu      sync.Mutex
	kernel  *Kernel
	symbols map[string][]byte
}

// chunkBytes is the granularity at which a DPU's MRAM bank is backed: a
// bank (up to 64 MB) holds chunks only where it has been written, so
// machines with many ranks fit in host RAM. At 64 KiB a push of a few
// hundred KiB covers whole chunks, which WriteDPUs stores once for every
// target, and a 64 MB bank's table is 8 KiB of pointers.
const chunkBytes = 64 << 10

// chunkData is the bytes of one chunk.
type chunkData = [chunkBytes]byte

// chunk is one backed chunk of a bank. A shared chunk is held by more than
// one bank, or by a bank a snapshot holds; its bytes never change again, and
// a write to it copies them first.
type chunk struct {
	data   *chunkData
	shared atomic.Bool
}

// bank is one DPU's MRAM: a table of chunks, nil where never written. A
// shared bank is held by a snapshot and never changes again; the DPU's next
// write copies the table first.
type bank struct {
	chunks []atomic.Pointer[chunk]
	shared atomic.Bool
}

// at returns chunk i, or nil where the bank was never written.
func (b *bank) at(i int) *chunk {
	if b == nil {
		return nil
	}
	return b.chunks[i].Load()
}

// The hardware interleaves a rank's banks across its chips: logical block k
// of DPU d sits at physical block k*DPUs + d, MaxDMABytes each. The
// simulator does not perform the interleave; the cost model charges it.
// Checkpoint and restore cost what the interleaved layout would have
// committed, in footprintChunkBytes chunks, so the rank keeps one footprint
// bit per such chunk.
const footprintChunkBytes = 1 << 20

// Rank models one UPMEM rank: the DPUs' MRAM banks, the per-DPU program
// state, and the control interface.
type Rank struct {
	cfg   RankConfig
	index int
	model cost.Model

	// A write to a private chunk of a private bank takes no lock, so DMAs
	// of concurrently running DPUs do not contend. A write to a nil or
	// shared chunk or bank commits a private one under commitMu. Reads of
	// never-written chunks observe zeros without allocating.
	commitMu sync.Mutex
	// footprint holds one bit per footprintChunkBytes chunk of the
	// interleaved layout, set by the first write that lands in it.
	footprint []atomic.Uint64

	dpus []dpuState
	ci   CIStats
	busy atomic.Bool
}

// NewRank builds a rank with the given configuration and cost model.
func NewRank(index int, cfg RankConfig, model cost.Model) *Rank {
	cfg = cfg.withDefaults()
	blocks := (cfg.MRAMBytes + MaxDMABytes - 1) / MaxDMABytes
	chunks := (blocks*int64(cfg.DPUs)*MaxDMABytes + footprintChunkBytes - 1) / footprintChunkBytes
	return &Rank{
		cfg:       cfg,
		index:     index,
		model:     model,
		footprint: make([]atomic.Uint64, (chunks+63)/64),
		dpus:      make([]dpuState, cfg.DPUs),
	}
}

// touch sets the footprint bits of an n-byte write at off to DPU d.
func (r *Rank) touch(d int, off int64, n int) {
	last := int64(-1)
	for k := off / MaxDMABytes; n > 0 && k <= (off+int64(n)-1)/MaxDMABytes; k++ {
		c := (k*int64(r.cfg.DPUs) + int64(d)) * MaxDMABytes / footprintChunkBytes
		if c == last {
			continue
		}
		last = c
		// A CAS loop, since atomic.Uint64.Or needs a newer go line.
		w, bit := &r.footprint[c/64], uint64(1)<<(c%64)
		for old := w.Load(); old&bit == 0 && !w.CompareAndSwap(old, old|bit); old = w.Load() {
		}
	}
}

// ownBank returns DPU d's private bank: a new one on the DPU's first write,
// a copy of the table on its first write after a snapshot shared it. The
// copy marks its chunks shared, since the snapshot holds them too. The
// caller holds commitMu.
func (r *Rank) ownBank(d int) *bank {
	p := &r.dpus[d].bank
	old := p.Load()
	if old != nil && !old.shared.Load() {
		return old
	}
	b := &bank{chunks: make([]atomic.Pointer[chunk], (r.cfg.MRAMBytes+chunkBytes-1)/chunkBytes)}
	if old != nil {
		for i := range old.chunks {
			if c := old.chunks[i].Load(); c != nil {
				c.shared.Store(true)
				b.chunks[i].Store(c)
			}
		}
	}
	p.Store(b)
	return b
}

// newChunk returns a private chunk holding base's bytes, zeros where base is
// nil, with part copied in at in. A part that covers the chunk whole is the
// chunk: it is copied once, without zeroing.
func newChunk(base *chunk, in int, part []byte) *chunk {
	if len(part) == chunkBytes {
		return &chunk{data: (*chunkData)(bytes.Clone(part))}
	}
	var data []byte
	if base == nil {
		data = make([]byte, chunkBytes)
	} else {
		data = bytes.Clone(base.data[:])
	}
	copy(data[in:], part)
	return &chunk{data: (*chunkData)(data)}
}

// writeChunk copies part into chunk i of DPU d at in, committing a private
// chunk first where the DPU holds a nil or shared one (copy on write).
// Racing writers check again under the lock, so one chunk is committed and
// every write lands in it.
func (r *Rank) writeChunk(d, i, in int, part []byte) {
	if b := r.dpus[d].bank.Load(); b != nil && !b.shared.Load() {
		if c := b.chunks[i].Load(); c != nil && !c.shared.Load() {
			copy(c.data[in:], part)
			return
		}
	}
	r.commitMu.Lock()
	defer r.commitMu.Unlock()
	slot := &r.ownBank(d).chunks[i]
	if c := slot.Load(); c == nil || c.shared.Load() {
		slot.Store(newChunk(c, in, part))
	} else {
		copy(c.data[in:], part) // a racing writer committed it first
	}
}

// shareChunk installs one shared chunk holding part, which covers chunk i
// whole, as chunk i of every listed DPU.
func (r *Rank) shareChunk(dpus []int, i int, part []byte) {
	c := newChunk(nil, 0, part)
	c.shared.Store(true)
	r.commitMu.Lock()
	defer r.commitMu.Unlock()
	for _, d := range dpus {
		r.ownBank(d).chunks[i].Store(c)
	}
}

// Index reports the rank's position on the host machine.
func (r *Rank) Index() int { return r.index }

// NumDPUs reports the number of functional DPUs.
func (r *Rank) NumDPUs() int { return r.cfg.DPUs }

// MRAMBytes reports the per-DPU MRAM size.
func (r *Rank) MRAMBytes() int64 { return r.cfg.MRAMBytes }

// FrequencyMHz reports the DPU clock for device configuration queries.
func (r *Rank) FrequencyMHz() int { return r.cfg.FrequencyMHz }

// TotalBytes reports the rank's total MRAM capacity (what the manager must
// memset on reset).
func (r *Rank) TotalBytes() int64 { return int64(r.cfg.DPUs) * r.cfg.MRAMBytes }

// CI returns the control-interface statistics.
func (r *Rank) CI() *CIStats { return &r.ci }

// CIOp records one control-interface operation (status poll, boot, fault
// query...). The caller charges its virtual cost; the rank only counts.
func (r *Rank) CIOp() { r.ci.ops.Add(1) }

// CIOps records n control-interface operations at once (e.g. a launch's
// per-DPU boot sequence).
func (r *Rank) CIOps(n int64) { r.ci.ops.Add(n) }

// checkAccess validates a host access to DPU d's MRAM.
func (r *Rank) checkAccess(d int, off int64, n int) error {
	if d < 0 || d >= r.cfg.DPUs {
		return fmt.Errorf("%w: %d", ErrBadDPU, d)
	}
	if n < 0 || off < 0 || off+int64(n) > r.cfg.MRAMBytes {
		return fmt.Errorf("%w: dpu %d off %d len %d", ErrOutOfRange, d, off, n)
	}
	if int64(n) > MaxTransferBytes {
		return ErrTransferTooLarge
	}
	return nil
}

// spans calls fn for each chunk that n bytes at off touch: the chunk's
// index i, the offset in it, and the part [lo, hi) of the n bytes that
// lands there.
func spans(off int64, n int, fn func(i, in, lo, hi int)) {
	for lo := 0; lo < n; {
		i, in := int((off+int64(lo))/chunkBytes), int((off+int64(lo))%chunkBytes)
		hi := min(n, lo+chunkBytes-in)
		fn(i, in, lo, hi)
		lo = hi
	}
}

// WriteDPU copies src into DPU d's MRAM at off. This is the functional core
// of a host write-to-rank; virtual copy time, interleave included, is
// charged by the caller because it depends on the copy engine.
func (r *Rank) WriteDPU(d int, off int64, src []byte) error {
	if err := r.checkAccess(d, off, len(src)); err != nil {
		return err
	}
	r.touch(d, off, len(src))
	spans(off, len(src), func(i, in, lo, hi int) { r.writeChunk(d, i, in, src[lo:hi]) })
	return nil
}

// WriteDPUs copies src into the MRAM of every listed DPU at off: the effect
// of one WriteDPU per listed DPU, but a chunk the write covers whole is
// built once from src and shared by every DPU; a partly covered chunk is
// written per DPU. A later write to a shared chunk copies it first. Every
// access is checked before any byte moves, so a failed WriteDPUs writes
// nothing.
func (r *Rank) WriteDPUs(dpus []int, off int64, src []byte) error {
	for _, d := range dpus {
		if err := r.checkAccess(d, off, len(src)); err != nil {
			return err
		}
	}
	switch len(dpus) {
	case 0:
		return nil
	case 1:
		return r.WriteDPU(dpus[0], off, src)
	}
	for _, d := range dpus {
		r.touch(d, off, len(src))
	}
	spans(off, len(src), func(i, in, lo, hi int) {
		if hi-lo == chunkBytes {
			r.shareChunk(dpus, i, src[lo:hi])
			return
		}
		for _, d := range dpus {
			r.writeChunk(d, i, in, src[lo:hi])
		}
	})
	return nil
}

// ReadDPU copies DPU d's MRAM at off into dst. Never-written regions read as
// zeros.
func (r *Rank) ReadDPU(d int, off int64, dst []byte) error {
	if err := r.checkAccess(d, off, len(dst)); err != nil {
		return err
	}
	b := r.dpus[d].bank.Load()
	spans(off, len(dst), func(i, in, lo, hi int) {
		if c := b.at(i); c != nil {
			copy(dst[lo:hi], c.data[in:])
		} else {
			clear(dst[lo:hi])
		}
	})
	return nil
}

// LoadProgram loads kernel onto DPU d: the analogue of writing the binary
// into IRAM and laying out the host symbol table. Symbols are zeroed.
func (r *Rank) LoadProgram(d int, kernel *Kernel) error {
	if d < 0 || d >= r.cfg.DPUs {
		return fmt.Errorf("%w: %d", ErrBadDPU, d)
	}
	if err := kernel.Validate(); err != nil {
		return err
	}
	st := &r.dpus[d]
	st.mu.Lock()
	defer st.mu.Unlock()
	st.kernel = kernel
	st.symbols = make(map[string][]byte, len(kernel.Symbols))
	for _, sym := range kernel.Symbols {
		st.symbols[sym.Name] = make([]byte, sym.Bytes)
	}
	r.ci.ops.Add(1)
	return nil
}

// Program reports the kernel loaded on DPU d, or nil.
func (r *Rank) Program(d int) *Kernel {
	if d < 0 || d >= r.cfg.DPUs {
		return nil
	}
	st := &r.dpus[d]
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.kernel
}

// SymbolWrite copies src into symbol name of DPU d at byte offset off.
func (r *Rank) SymbolWrite(d int, name string, off int, src []byte) error {
	buf, err := r.symbol(d, name, off, len(src))
	if err != nil {
		return err
	}
	st := &r.dpus[d]
	st.mu.Lock()
	defer st.mu.Unlock()
	copy(buf, src)
	return nil
}

// SymbolRead copies symbol name of DPU d at byte offset off into dst.
func (r *Rank) SymbolRead(d int, name string, off int, dst []byte) error {
	buf, err := r.symbol(d, name, off, len(dst))
	if err != nil {
		return err
	}
	st := &r.dpus[d]
	st.mu.Lock()
	defer st.mu.Unlock()
	copy(dst, buf)
	return nil
}

func (r *Rank) symbol(d int, name string, off, n int) ([]byte, error) {
	if d < 0 || d >= r.cfg.DPUs {
		return nil, fmt.Errorf("%w: %d", ErrBadDPU, d)
	}
	st := &r.dpus[d]
	st.mu.Lock()
	defer st.mu.Unlock()
	buf, ok := st.symbols[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q on dpu %d", ErrNoSymbol, name, d)
	}
	if off < 0 || off+n > len(buf) {
		return nil, fmt.Errorf("%w: symbol %q off %d len %d", ErrOutOfRange, name, off, n)
	}
	return buf[off : off+n], nil
}

// Reset zeroes the rank's entire memory and clears loaded programs. The
// manager calls this between tenants (NANA -> NAAV transition).
func (r *Rank) Reset() {
	for d := range r.dpus {
		st := &r.dpus[d]
		st.bank.Store(nil) // drop the bank: it reads as zero
		st.mu.Lock()
		st.kernel = nil
		st.symbols = nil
		st.mu.Unlock()
	}
	for i := range r.footprint {
		r.footprint[i].Store(0)
	}
}

// ResetDuration reports the virtual time of a Reset (the ~597 ms/8 GB memset
// of Section 4.2).
func (r *Rank) ResetDuration() time.Duration {
	return r.model.ResetDuration(r.TotalBytes())
}
