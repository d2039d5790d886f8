package pim

import (
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
	// InterleaveBlock is the rank interleaving granularity in bytes. The
	// real hardware interleaves bytes across the 8 chips; we interleave at
	// DMA-burst granularity, which preserves the property that host copies
	// must gather/scatter with a stride (the work the C/AVX512 engine does)
	// while staying fast enough to move gigabytes on a laptop-class host.
	InterleaveBlock int
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
	if c.InterleaveBlock == 0 || physChunkBytes%c.InterleaveBlock != 0 {
		c.InterleaveBlock = MaxDMABytes
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

// dpuState is the per-DPU mutable state: loaded program and host symbols.
type dpuState struct {
	mu      sync.Mutex
	kernel  *Kernel
	symbols map[string][]byte
}

// physChunkBytes is the lazy-commit granularity of rank physical storage: a
// rank's full bank array (up to 4 GB) is only backed where it has actually
// been written, so machines with many 64 MB-per-DPU ranks fit in laptop RAM.
const physChunkBytes = 1 << 20

// physChunk is the bytes of one committed chunk of a rank's physical storage.
type physChunk = [physChunkBytes]byte

// chunk is one committed chunk. A checkpoint marks it shared and hands the
// same pointer to the snapshot; a shared chunk's bytes never change again, so
// one snapshot may be restored any number of times, on any rank.
type chunk struct {
	data   *physChunk
	shared atomic.Bool
}

// Rank models one UPMEM rank: the interleaved physical storage backing all
// DPU MRAM banks, the per-DPU program state, and the control interface.
type Rank struct {
	cfg   RankConfig
	index int
	model cost.Model

	// chunks lazily back the rank's physical byte array. Logical MRAM byte
	// i of DPU d lives at physical offset interleave(d, i); see
	// (*Rank).physRange. A write to a private chunk takes no lock, so DMAs
	// of concurrently running DPUs do not contend. The first write to a nil
	// or shared chunk commits a private one under commitMu. Reads of
	// never-written chunks observe zeros without allocating.
	chunks   []atomic.Pointer[chunk]
	commitMu sync.Mutex

	dpus []dpuState
	ci   CIStats
	busy atomic.Bool
}

// NewRank builds a rank with the given configuration and cost model.
func NewRank(index int, cfg RankConfig, model cost.Model) *Rank {
	cfg = cfg.withDefaults()
	total := int64(cfg.DPUs) * cfg.MRAMBytes
	nChunks := (total + physChunkBytes - 1) / physChunkBytes
	return &Rank{
		cfg:    cfg,
		index:  index,
		model:  model,
		chunks: make([]atomic.Pointer[chunk], nChunks),
		dpus:   make([]dpuState, cfg.DPUs),
	}
}

// physWrite returns a writable slice for physical bytes [off, off+n), which
// must not cross a chunk boundary. A nil or shared chunk is first replaced
// by a private one (copy on write).
func (r *Rank) physWrite(off int64, n int64) []byte {
	p := &r.chunks[off/physChunkBytes]
	c := p.Load()
	if c == nil || c.shared.Load() {
		c = r.commit(p)
	}
	in := off % physChunkBytes
	return c.data[in : in+n]
}

// commit installs a private chunk in slot p: zeroed where p holds none, a
// copy of the shared bytes otherwise. Racing writers check again under the
// lock, so one chunk is committed and every writer gets it.
func (r *Rank) commit(p *atomic.Pointer[chunk]) *chunk {
	r.commitMu.Lock()
	defer r.commitMu.Unlock()
	c := p.Load()
	switch {
	case c == nil:
		c = &chunk{data: new(physChunk)}
	case c.shared.Load():
		// append allocates without zeroing the bytes it then overwrites,
		// unlike new followed by copy.
		c = &chunk{data: (*physChunk)(append([]byte(nil), c.data[:]...))}
	default:
		return c
	}
	p.Store(c)
	return c
}

// physRead returns a read-only slice for physical bytes [off, off+n), or
// nil when the chunk has never been written (all zeros).
func (r *Rank) physRead(off int64, n int64) []byte {
	c := r.chunks[off/physChunkBytes].Load()
	if c == nil {
		return nil
	}
	in := off % physChunkBytes
	return c.data[in : in+n]
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

// physRange iterates the physical byte ranges covering logical bytes
// [off, off+n) of DPU d, calling fn with each range's physical offset and
// length. Interleaving places logical block k of DPU d at physical block
// k*DPUs + d; ranges never cross an interleave block, hence never a commit
// chunk either.
func (r *Rank) physRange(d int, off int64, n int, fn func(physOff, length int64)) {
	blockSize := int64(r.cfg.InterleaveBlock)
	stride := int64(r.cfg.DPUs)
	for n > 0 {
		block := off / blockSize
		inBlock := off % blockSize
		chunk := blockSize - inBlock
		if int64(n) < chunk {
			chunk = int64(n)
		}
		fn((block*stride+int64(d))*blockSize+inBlock, chunk)
		off += chunk
		n -= int(chunk)
	}
}

// WriteDPU copies src into DPU d's MRAM at off, performing the interleaving
// scatter. This is the functional core of a host write-to-rank; virtual copy
// time is charged by the caller because it depends on the copy engine.
func (r *Rank) WriteDPU(d int, off int64, src []byte) error {
	if err := r.checkAccess(d, off, len(src)); err != nil {
		return err
	}
	pos := int64(0)
	r.physRange(d, off, len(src), func(physOff, length int64) {
		copy(r.physWrite(physOff, length), src[pos:pos+length])
		pos += length
	})
	return nil
}

// ReadDPU copies DPU d's MRAM at off into dst, performing the interleaving
// gather. Never-written regions read as zeros.
func (r *Rank) ReadDPU(d int, off int64, dst []byte) error {
	if err := r.checkAccess(d, off, len(dst)); err != nil {
		return err
	}
	pos := int64(0)
	r.physRange(d, off, len(dst), func(physOff, length int64) {
		if phys := r.physRead(physOff, length); phys != nil {
			copy(dst[pos:pos+length], phys)
		} else {
			clear(dst[pos : pos+length])
		}
		pos += length
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

// Reset zeroes the rank's entire physical memory and clears loaded programs.
// The manager calls this between tenants (NANA -> NAAV transition).
func (r *Rank) Reset() {
	for i := range r.chunks {
		r.chunks[i].Store(nil) // drop the chunk: it reads as zero
	}
	for d := range r.dpus {
		st := &r.dpus[d]
		st.mu.Lock()
		st.kernel = nil
		st.symbols = nil
		st.mu.Unlock()
	}
}

// ResetDuration reports the virtual time of a Reset (the ~597 ms/8 GB memset
// of Section 4.2).
func (r *Rank) ResetDuration() time.Duration {
	return r.model.ResetDuration(r.TotalBytes())
}
