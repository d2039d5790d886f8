package pim

import (
	"encoding/binary"
	"fmt"
)

// runState is the per-DPU state of one Launch: cycle and DMA accounting,
// the WRAM allocator, the intra-DPU mutex and the tasklets' turns. Only the
// tasklet whose turn it is touches it, so it needs no locks.
type runState struct {
	rank   *Rank
	dpu    int
	kernel *Kernel

	// instr accumulates executed instructions across all tasklets. The DPU
	// pipeline dispatches one instruction per cycle when >= 11 tasklets are
	// resident, so the aggregate count is what determines execution time
	// (see worker.run); the per-tasklet breakdown is irrelevant.
	instr int64
	// dmaNanos accumulates MRAM<->WRAM DMA time; the DMA engine is shared,
	// so transfers serialize.
	dmaNanos int64

	wramUsed int
	shared   map[string][]byte

	// locked and holder are the DPU mutex and the tasklet holding it.
	locked bool
	holder int

	// tasklets are the DPU's tasklets in id order; done wakes the worker
	// when the last turn ends.
	tasklets []*Ctx
	done     chan struct{}
	// arrived counts the tasklets waiting at the current barrier, returned
	// those whose Run has returned.
	arrived  int
	returned int
	// errs collects the tasklets' errors in id order; fault records why the
	// tasklets can no longer proceed (ErrDeadlock or ErrDPUFault).
	errs  []error
	fault error
}

// Ctx is the execution context of one tasklet: the DPU-side API a kernel
// programs against. It mirrors the UPMEM DPU runtime: me(), mem_alloc,
// mram_read/mram_write, barrier_wait, mutex lock, and host variable access.
//
// A Ctx is tasklet-private and must not be shared across goroutines.
type Ctx struct {
	st *runState
	id int
	// wake hands this tasklet its turn (true) or unwinds it (false) when
	// it waits in Barrier; an idle tasklet goroutine starts on true and
	// exits once wake is closed.
	wake  chan bool
	state taskletState
}

// taskletState tracks a tasklet through one DPU's run.
type taskletState uint8

const (
	notStarted taskletState = iota
	started
	finished
)

// Me reports the tasklet id (the UPMEM me() intrinsic).
func (c *Ctx) Me() int { return c.id }

// NumTasklets reports the tasklet count of the running kernel.
func (c *Ctx) NumTasklets() int { return c.st.kernel.Tasklets }

// DPU reports the index of the DPU this tasklet runs on (within its rank).
func (c *Ctx) DPU() int { return c.st.dpu }

// MRAMBytes reports the size of this DPU's MRAM bank.
func (c *Ctx) MRAMBytes() int64 { return c.st.rank.cfg.MRAMBytes }

// Tick charges n executed instructions to the DPU pipeline. Kernels call it
// with per-chunk instruction estimates; the cost model converts the
// aggregate into cycles.
func (c *Ctx) Tick(n int64) {
	if n > 0 {
		c.st.instr += n
	}
}

// Alloc reserves n bytes of WRAM (the mem_alloc heap shared by all
// tasklets). It fails with ErrWRAMOverflow when the 64 KB bank is exhausted,
// exactly like the real allocator.
func (c *Ctx) Alloc(n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("pim: negative WRAM allocation %d", n)
	}
	if c.st.wramUsed+n > WRAMBytes {
		return nil, fmt.Errorf("%w: used %d, requested %d", ErrWRAMOverflow, c.st.wramUsed, n)
	}
	c.st.wramUsed += n
	return make([]byte, n), nil
}

// ResetHeap resets the WRAM allocator (mem_reset). Kernels conventionally
// have tasklet 0 call it before the first barrier.
func (c *Ctx) ResetHeap() {
	c.st.wramUsed = 0
	c.st.shared = nil
}

// Shared returns the named WRAM buffer shared by all tasklets of the DPU
// (the analogue of a global WRAM array in a real DPU program), allocating it
// on first use. Every tasklet receives the same backing slice; accesses to
// it must be synchronized with Barrier or Lock like on real hardware.
func (c *Ctx) Shared(name string, n int) ([]byte, error) {
	if buf, ok := c.st.shared[name]; ok {
		if len(buf) != n {
			return nil, fmt.Errorf("pim: shared buffer %q is %d bytes, requested %d", name, len(buf), n)
		}
		return buf, nil
	}
	if c.st.wramUsed+n > WRAMBytes {
		return nil, fmt.Errorf("%w: used %d, requested %d", ErrWRAMOverflow, c.st.wramUsed, n)
	}
	c.st.wramUsed += n
	if c.st.shared == nil {
		c.st.shared = make(map[string][]byte)
	}
	buf := make([]byte, n)
	c.st.shared[name] = buf
	return buf, nil
}

// checkDMA validates an MRAM DMA transfer.
func (c *Ctx) checkDMA(off int64, n int) error {
	if n > MaxDMABytes {
		return fmt.Errorf("%w: %d bytes", ErrDMATooLarge, n)
	}
	if off%DMAAlign != 0 {
		return fmt.Errorf("%w: offset %d", ErrBadAlignment, off)
	}
	if off < 0 || off+int64(n) > c.st.rank.cfg.MRAMBytes {
		return fmt.Errorf("%w: off %d len %d", ErrOutOfRange, off, n)
	}
	return nil
}

// MRAMRead DMAs n=len(dst) bytes from MRAM offset off into WRAM (mram_read).
// Transfers must be 8-byte aligned and at most 2048 bytes.
func (c *Ctx) MRAMRead(off int64, dst []byte) error {
	if err := c.checkDMA(off, len(dst)); err != nil {
		return err
	}
	if err := c.st.rank.ReadDPU(c.st.dpu, off, dst); err != nil {
		return err
	}
	c.st.dmaNanos += int64(c.st.rank.model.MRAMTransfer(len(dst)))
	return nil
}

// MRAMWrite DMAs src from WRAM into MRAM at offset off (mram_write).
func (c *Ctx) MRAMWrite(src []byte, off int64) error {
	if err := c.checkDMA(off, len(src)); err != nil {
		return err
	}
	if err := c.st.rank.WriteDPU(c.st.dpu, off, src); err != nil {
		return err
	}
	c.st.dmaNanos += int64(c.st.rank.model.MRAMTransfer(len(src)))
	return nil
}

// Barrier blocks until every tasklet of the kernel has reached it
// (barrier_wait on the kernel's barrier). It ends the tasklet's turn: the
// next tasklet in id order takes over, and after the last one tasklet 0
// resumes. If a tasklet has returned, the barrier can never complete and
// the DPU fails with ErrDeadlock.
func (c *Ctx) Barrier() {
	c.st.arrived++
	c.st.pass(c.id)
	if !<-c.wake {
		panic(unwind{})
	}
}

// Lock acquires the DPU-wide mutex (the UPMEM mutex primitive kernels use to
// guard shared host variables). Tasklets switch only at barriers, so the
// mutex is free unless another tasklet holds it across a barrier or
// returned holding it; taking it then fails the DPU with ErrDeadlock.
func (c *Ctx) Lock() {
	st := c.st
	if st.locked {
		st.fault = fmt.Errorf("%w: tasklet %d locks the mutex tasklet %d still holds", ErrDeadlock, c.id, st.holder)
		panic(unwind{})
	}
	st.locked, st.holder = true, c.id
}

// Unlock releases the DPU-wide mutex.
func (c *Ctx) Unlock() { c.st.locked = false }

// HostU32 reads host symbol name as a little-endian uint32.
func (c *Ctx) HostU32(name string) (uint32, error) {
	var buf [4]byte
	if err := c.st.rank.SymbolRead(c.st.dpu, name, 0, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(buf[:]), nil
}

// SetHostU32 writes host symbol name as a little-endian uint32.
func (c *Ctx) SetHostU32(name string, v uint32) error {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	return c.st.rank.SymbolWrite(c.st.dpu, name, 0, buf[:])
}

// HostU64 reads host symbol name as a little-endian uint64.
func (c *Ctx) HostU64(name string) (uint64, error) {
	var buf [8]byte
	if err := c.st.rank.SymbolRead(c.st.dpu, name, 0, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// SetHostU64 writes host symbol name as a little-endian uint64.
func (c *Ctx) SetHostU64(name string, v uint64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return c.st.rank.SymbolWrite(c.st.dpu, name, 0, buf[:])
}

// AddHostU64 atomically (under the DPU mutex) adds v to host symbol name.
// It is the idiom kernels use for cross-tasklet reductions into a __host
// accumulator.
func (c *Ctx) AddHostU64(name string, v uint64) error {
	c.Lock()
	defer c.Unlock()
	cur, err := c.HostU64(name)
	if err != nil {
		return err
	}
	return c.SetHostU64(name, cur+v)
}

// HostBytes reads len(dst) bytes of host symbol name at offset off.
func (c *Ctx) HostBytes(name string, off int, dst []byte) error {
	return c.st.rank.SymbolRead(c.st.dpu, name, off, dst)
}

// SetHostBytes writes src into host symbol name at offset off.
func (c *Ctx) SetHostBytes(name string, off int, src []byte) error {
	return c.st.rank.SymbolWrite(c.st.dpu, name, off, src)
}
