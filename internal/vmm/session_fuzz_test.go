package vmm

import (
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/manager"
	"repro/internal/pim"
	"repro/internal/prim"
	"repro/internal/sdk"
	"repro/internal/upmem"
)

// A fuzzed guest session runs on one rank of sessionDPUs DPUs with small
// banks, at most sessionMaxOps operations long, moving at most
// sessionMaxBytes per transfer. Every guest call must return within
// sessionCallBound of wall-clock time.
const (
	sessionDPUs      = 4
	sessionMRAM      = 256 << 10
	sessionMaxOps    = 32
	sessionMaxBytes  = 32 << 10
	sessionCallBound = 10 * time.Second
)

// Session operations. Each starts with one byte, taken modulo opCount, and
// reads its arguments from the bytes after it; an input that runs out reads
// zeros.
const (
	opAttach       = iota // AllocSet of the whole rank
	opLoad                // [kernel]
	opWriteMRAM           // [dpu, off u32, len u16, pattern]
	opWriteSym            // [dpu, symbol, off, len, pattern]; dpu 4 broadcasts
	opLaunch              // [async, count, dpu...] straight to the device
	opReadMRAM            // [dpu, off u32, len u16]
	opReadSym             // [dpu, symbol, off, len]
	opPush                // [count, dpu..., off u32, len u16, pattern]: one buffer
	opFreeReattach        // Free, then AllocSet again
	opCount
)

// sessionKernels is the vocabulary of loadable binaries: every registered
// PrIM and UPMEM kernel.
var sessionKernels = append(prim.Kernels(), upmem.Kernels()...)

// sessionInput hands out the bytes of an encoded session.
type sessionInput []byte

func (in *sessionInput) u8() int {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return int(b)
}

func (in *sessionInput) u16() int { return in.u8() | in.u8()<<8 }

func (in *sessionInput) u32() uint32 { return uint32(in.u16()) | uint32(in.u16())<<16 }

// fill repeats a pattern of one to eight input bytes over buf.
func (in *sessionInput) fill(buf []byte) {
	pat := make([]byte, in.u8()%8+1)
	for i := range pat {
		pat[i] = byte(in.u8())
	}
	for i := range buf {
		buf[i] = pat[i%len(pat)]
	}
}

// dpus reads a DPU list of up to five entries, in input order, which may
// repeat a DPU or name one past the rank.
func (in *sessionInput) dpus() []int {
	out := make([]int, in.u8()%6)
	for i := range out {
		out[i] = in.u8() % (sessionDPUs + 1)
	}
	return out
}

// sessionBuilder encodes a session for the seed corpus.
type sessionBuilder []byte

func (b *sessionBuilder) u8(vals ...int) *sessionBuilder {
	for _, v := range vals {
		*b = append(*b, byte(v))
	}
	return b
}

func (b *sessionBuilder) u32(v uint32) *sessionBuilder {
	*b = binary.LittleEndian.AppendUint32(*b, v)
	return b
}

func (b *sessionBuilder) load(name string) *sessionBuilder {
	for i, k := range sessionKernels {
		if k.Name == name {
			return b.u8(opLoad, i)
		}
	}
	panic("no kernel " + name)
}

// span encodes an MRAM offset and a transfer length of n bytes.
func (b *sessionBuilder) span(off uint32, n int) *sessionBuilder {
	return b.u32(off).u8((n-1)&0xFF, (n-1)>>8)
}

// writeMRAM writes n bytes of pat into one DPU's MRAM at off.
func (b *sessionBuilder) writeMRAM(dpu int, off uint32, n int, pat int) *sessionBuilder {
	return b.u8(opWriteMRAM, dpu).span(off, n).u8(0, pat)
}

// setSym writes v into symbol sym (an index into the loaded kernel's
// table) of every DPU.
func (b *sessionBuilder) setSym(sym int, v uint32) *sessionBuilder {
	return b.u8(opWriteSym, sessionDPUs, sym, 0, 4, 3).u32(v)
}

func (b *sessionBuilder) launch(dpus ...int) *sessionBuilder {
	return b.u8(opLaunch, 0, len(dpus)).u8(dpus...)
}

// within runs one guest call and fails the test unless it returns within
// sessionCallBound.
func within(t *testing.T, what string, call func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- call() }()
	timer := time.NewTimer(sessionCallBound)
	defer timer.Stop()
	select {
	case err := <-done:
		return err
	case <-timer.C:
		t.Fatalf("%s did not return within %v", what, sessionCallBound)
		return nil
	}
}

// requireReleased fails unless the manager holds no ALLO rank for owner.
func requireReleased(t *testing.T, mgr *manager.Manager, owner string) {
	t.Helper()
	owners := mgr.Owners()
	for i, st := range mgr.States() {
		if st == manager.StateALLO && owners[i] == owner {
			t.Fatalf("rank %d still ALLO for %s after Free", i, owner)
		}
	}
}

// runGuestSession decodes data into guest operations and runs them on a
// fresh one-rank machine under opts. Guest calls may fail; none may panic
// or outlast sessionCallBound. After every Free the manager must hold no
// rank for the guest, and a second VM must then run checksum bit-exact on
// the same rank: no byte of the session may leak to the next tenant (R2).
func runGuestSession(t *testing.T, opts Options, data []byte) {
	mach, err := pim.NewMachine(pim.MachineConfig{
		Ranks: 1,
		Rank:  pim.RankConfig{DPUs: sessionDPUs, MRAMBytes: sessionMRAM},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := prim.Register(mach.Registry()); err != nil {
		t.Fatal(err)
	}
	if err := upmem.Register(mach.Registry()); err != nil {
		t.Fatal(err)
	}
	mgr := manager.New(mach, manager.Options{Retries: 2, RetryTimeout: 2 * time.Millisecond})
	vm, err := NewVM(mach, mgr, Config{Name: "guest", MemBytes: 64 << 20, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	buf, err := vm.AllocBuffer(sessionMaxBytes)
	if err != nil {
		t.Fatal(err)
	}
	owner := vm.Frontends()[0].ID()
	tl := vm.Timeline()
	in := sessionInput(data)
	var set *sdk.Set
	var syms []pim.Symbol
	symbol := func() string {
		if i := in.u8() % (len(syms) + 1); i < len(syms) {
			return syms[i].Name
		}
		return "no_such_symbol"
	}
	attach := func() {
		if err := within(t, "attach", func() (err error) {
			set, err = vm.AllocSet(sessionDPUs)
			return err
		}); err != nil {
			t.Fatalf("attach: %v", err)
		}
	}
	for n := 0; n < sessionMaxOps && len(in) > 0; n++ {
		op := in.u8() % opCount
		if set == nil && op != opAttach {
			continue
		}
		switch op {
		case opAttach:
			attach()
		case opLoad:
			k := sessionKernels[in.u8()%len(sessionKernels)]
			syms = k.Symbols
			_ = within(t, "load "+k.Name, func() error { return set.Load(k.Name) })
		case opWriteMRAM:
			dpu, off, length := in.u8()%(sessionDPUs+1), int64(in.u32()%(sessionMRAM+8192)), in.u16()%sessionMaxBytes+1
			in.fill(buf.Data[:length])
			_ = within(t, "MRAM write", func() error { return set.CopyToMRAM(dpu, off, buf, length) })
		case opWriteSym:
			dpu, name, off, length := in.u8()%(sessionDPUs+2), symbol(), in.u8()%16, in.u8()%9
			src := make([]byte, length)
			in.fill(src)
			_ = within(t, "symbol write "+name, func() error {
				if dpu == sessionDPUs {
					return set.BroadcastSym(name, off, src)
				}
				return set.CopyToSym(dpu, name, off, src)
			})
		case opLaunch:
			async, dpus := in.u8()&1 == 1, in.dpus()
			dev := set.Devices()[0]
			_ = within(t, "launch", func() error {
				if !async {
					return dev.Launch(dpus, tl)
				}
				done, err := dev.LaunchStart(dpus, tl)
				if err == nil {
					tl.AdvanceTo(done)
				}
				return err
			})
		case opReadMRAM:
			dpu, off, length := in.u8()%(sessionDPUs+1), int64(in.u32()%(sessionMRAM+8192)), in.u16()%sessionMaxBytes+1
			_ = within(t, "MRAM read", func() error { return set.CopyFromMRAM(dpu, off, buf, length) })
		case opReadSym:
			dpu, name, off, length := in.u8()%(sessionDPUs+1), symbol(), in.u8()%16, in.u8()%9
			_ = within(t, "symbol read "+name, func() error { return set.CopyFromSym(dpu, name, off, make([]byte, length)) })
		case opPush:
			dpus, off, length := in.dpus(), int64(in.u32()%(sessionMRAM+8192)), in.u16()%sessionMaxBytes+1
			in.fill(buf.Data[:length])
			_ = within(t, "push", func() error {
				for _, d := range dpus {
					if err := set.PrepareXfer(d, buf); err != nil {
						return err
					}
				}
				return set.PushXfer(sdk.ToDPU, off, length)
			})
		case opFreeReattach:
			_ = within(t, "free", set.Free)
			requireReleased(t, mgr, owner)
			attach()
		}
	}
	if set != nil {
		_ = within(t, "free", set.Free)
	}
	requireReleased(t, mgr, owner)
	next, err := NewVM(mach, mgr, Config{Name: "next", MemBytes: 64 << 20, Options: Full()})
	if err != nil {
		t.Fatal(err)
	}
	if err := within(t, "next tenant's checksum", func() error {
		return upmem.RunChecksum(next, upmem.ChecksumParams{DPUs: sessionDPUs, BytesPerDPU: 64 << 10})
	}); err != nil {
		t.Fatalf("next tenant on the rank: %v", err)
	}
}

// guestSessionSeeds are the hostile inputs found before the fuzzer existed:
// pixels wider than HST's 12-bit depth (both variants), a TS query longer
// than its WRAM window, and a checksum length past the banks, which leaves
// the last tasklet's siblings waiting at a barrier. A broadcast push to a
// DPU subset, freed and pushed again, covers the transfer path. Then come
// the fuzzer's own first finding (see
// TestFreeReleasesRankAfterPendingFailure): a batched write past the banks,
// and a write to an unknown symbol that stays staged under vPIM-pipe, both
// failing only at Free. The last is an index-search partition whose
// structure runs past is_words, set first short of it and then past the
// bank (TestIndexKernelScanPastPartition pins the error).
func guestSessionSeeds() [][]byte {
	wide := func(kernel string) []byte {
		var b sessionBuilder
		b.u8(opAttach).load(kernel).writeMRAM(0, 0, 4096, 0xFF).setSym(0, 1024).launch(0)
		return b
	}
	var ts, ck, push sessionBuilder
	ts.u8(opAttach).load("prim/ts").setSym(0, 128).setSym(1, 200).launch(0, 1, 2, 3)
	ck.u8(opAttach).load("upmem/checksum").setSym(0, sessionMRAM/4+64).launch(0, 1, 2, 3)
	push.u8(opAttach)
	for i := 0; i < 2; i++ {
		push.u8(opPush, 3, 3, 0, 1).span(4096, 20<<10).u8(1, 0xA5, i)
		push.u8(opReadMRAM, 1).span(4096, 4096)
		push.u8(opFreeReattach)
	}
	var pastEnd, unknownSym, index sessionBuilder
	pastEnd.u8(opAttach).writeMRAM(0, sessionMRAM+16, 8, 0x77)
	unknownSym.u8(opAttach, opWriteSym, 0, 0, 0, 4, 0, 0x11)
	// Each partition's header claims 0x01010101 docs of 0x01010101 terms:
	// the scan runs into is_words, then, with is_words past the bank, into
	// the bank's end.
	index.u8(opAttach).load("upmem/index-search")
	for d := 0; d < sessionDPUs; d++ {
		index.writeMRAM(d, 0, 4096, 0x01)
	}
	index.setSym(1, 1).setSym(0, 64).launch(0, 1, 2, 3)
	index.setSym(0, sessionMRAM/4+64).launch(0, 1, 2, 3)
	return [][]byte{wide("prim/hst-s"), wide("prim/hst-l"), ts, ck, push, pastEnd, unknownSym, index}
}

// sessionVariants are the configurations every fuzzed session runs under:
// the shipping configuration, plus the pipelined window, plus broadcast
// deduplication (whose pushes name their targets in the header's DPU mask).
func sessionVariants() []Options {
	pipe, bcast := Full(), Full()
	pipe.Pipeline = true
	bcast.Bcast = true
	return []Options{Full(), pipe, bcast}
}

// FuzzGuestSession fuzzes a hostile guest's whole session rather than one
// decoder: attach, loads of any registered kernel, MRAM and symbol writes at
// chosen offsets and bytes, launches on chosen DPU lists, reads, pushes of
// one buffer to a DPU subset, and free then re-attach, under each of
// sessionVariants.
func FuzzGuestSession(f *testing.F) {
	for _, seed := range guestSessionSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, opts := range sessionVariants() {
			runGuestSession(t, opts, data)
		}
	})
}
