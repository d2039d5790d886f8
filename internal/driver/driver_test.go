package driver_test

import (
	"bytes"
	"testing"

	"repro/internal/driver"
	"repro/internal/hostmem"
	"repro/internal/manager"
	"repro/internal/obs"
	"repro/internal/pim"
	"repro/internal/sdk"
	"repro/internal/vmm"
)

// stack builds a one-rank VM and returns its frontend plus helpers.
func stack(t *testing.T, opts vmm.Options) (*vmm.VM, *driver.Frontend, *sdk.Set) {
	t.Helper()
	mach, err := pim.NewMachine(pim.MachineConfig{
		Ranks: 1,
		Rank:  pim.RankConfig{DPUs: 4, MRAMBytes: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	mach.Registry().MustRegister(&pim.Kernel{
		Name: "noop", Tasklets: 1, CodeBytes: 256,
		Run: func(ctx *pim.Ctx) error { return nil },
	})
	mach.Registry().MustRegister(&pim.Kernel{
		Name: "faulting", Tasklets: 1, CodeBytes: 256,
		Run: func(ctx *pim.Ctx) error {
			_, err := ctx.Alloc(pim.WRAMBytes + 1)
			return err
		},
	})
	mgr := manager.New(mach, manager.Options{})
	vm, err := vmm.NewVM(mach, mgr, vmm.Config{Name: "d", Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	set, err := vm.AllocSet(4)
	if err != nil {
		t.Fatal(err)
	}
	return vm, vm.Frontends()[0], set
}

// count reads one of the VM's counters, summed over its devices.
func count(vm *vmm.VM, name string) int64 {
	return obs.Aggregate(vm.Metrics())[name]
}

func mkBuf(t *testing.T, vm *vmm.VM, n int, fill byte) hostmem.Buffer {
	t.Helper()
	buf, err := vm.AllocBuffer(n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf.Data {
		buf.Data[i] = fill
	}
	return buf
}

func TestBatchingDefersSmallWrites(t *testing.T) {
	vm, _, set := stack(t, vmm.Options{Batch: true})
	before := count(vm, "frontend.messages")
	buf := mkBuf(t, vm, 256, 0x11)
	for i := 0; i < 10; i++ {
		if err := set.CopyToMRAM(0, int64(i*256), buf, 256); err != nil {
			t.Fatal(err)
		}
	}
	if got := count(vm, "frontend.batch.appends"); got != 10 {
		t.Errorf("batched writes = %d, want 10", got)
	}
	if got := count(vm, "frontend.batch.flushes"); got != 0 {
		t.Errorf("flushes = %d before any non-write op", got)
	}
	if got := count(vm, "frontend.messages") - before; got != 0 {
		t.Errorf("batched writes sent %d messages, want 0", got)
	}
	// A read forces the flush and must observe every batched write.
	out := mkBuf(t, vm, 2560, 0)
	if err := set.CopyFromMRAM(0, 0, out, 2560); err != nil {
		t.Fatal(err)
	}
	if got := count(vm, "frontend.batch.flushes"); got != 1 {
		t.Errorf("flushes = %d after read", got)
	}
	if !bytes.Equal(out.Data[:2560], bytes.Repeat([]byte{0x11}, 2560)) {
		t.Error("flushed data not visible to the read")
	}
}

func TestLargeWritesBypassBatch(t *testing.T) {
	vm, _, set := stack(t, vmm.Options{Batch: true})
	buf := mkBuf(t, vm, 64<<10, 0x22)
	if err := set.CopyToMRAM(0, 0, buf, 64<<10); err != nil {
		t.Fatal(err)
	}
	if count(vm, "frontend.batch.appends") != 0 {
		t.Error("64KB write must take the zero-copy path, not the batch")
	}
	// It must be immediately visible in MRAM.
	rank := vm.Backends()[0].Rank()
	got := make([]byte, 64<<10)
	if err := rank.ReadDPU(0, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf.Data) {
		t.Error("large write not applied")
	}
}

func TestBatchOverflowFlushes(t *testing.T) {
	vm, _, set := stack(t, vmm.Options{Batch: true})
	// Batch capacity is 64 pages = 256 KB per DPU; 10 KB records overflow
	// after ~25 appends.
	buf := mkBuf(t, vm, 10<<10, 0x33)
	for i := 0; i < 30; i++ {
		if err := set.CopyToMRAM(0, int64(i)*(10<<10), buf, 10<<10); err != nil {
			t.Fatal(err)
		}
	}
	if count(vm, "frontend.batch.flushes") == 0 {
		t.Error("overflowing the batch buffer must flush")
	}
}

func TestPrefetchCacheHitsAndInvalidation(t *testing.T) {
	vm, _, set := stack(t, vmm.Options{Prefetch: true})
	src := mkBuf(t, vm, 128<<10, 0x44)
	if err := set.CopyToMRAM(0, 0, src, 128<<10); err != nil {
		t.Fatal(err)
	}
	out := mkBuf(t, vm, 256, 0)

	if err := set.CopyFromMRAM(0, 0, out, 256); err != nil {
		t.Fatal(err)
	}
	if fills, hits := count(vm, "frontend.cache.misses"), count(vm, "frontend.cache.hits"); fills != 1 || hits != 0 {
		t.Errorf("first read: fills=%d hits=%d, want 1/0", fills, hits)
	}
	// Consecutive small reads within the 64KB window must hit.
	for off := int64(256); off < 16<<10; off += 256 {
		if err := set.CopyFromMRAM(0, off, out, 256); err != nil {
			t.Fatal(err)
		}
	}
	if got := count(vm, "frontend.cache.misses"); got != 1 {
		t.Errorf("fills = %d, want still 1", got)
	}
	if count(vm, "frontend.cache.hits") == 0 {
		t.Error("in-window reads must hit")
	}
	if out.Data[0] != 0x44 {
		t.Error("cache served wrong data")
	}

	// A write invalidates; the next read refills.
	if err := set.CopyToMRAM(0, 0, src, 70<<10); err != nil {
		t.Fatal(err)
	}
	if err := set.CopyFromMRAM(0, 0, out, 256); err != nil {
		t.Fatal(err)
	}
	if got := count(vm, "frontend.cache.misses"); got != 2 {
		t.Errorf("fills after invalidating write = %d, want 2", got)
	}
}

func TestPrefetchReadBeyondWindowBypasses(t *testing.T) {
	vm, _, set := stack(t, vmm.Options{Prefetch: true})
	src := mkBuf(t, vm, 128<<10, 0x55)
	if err := set.CopyToMRAM(0, 0, src, 128<<10); err != nil {
		t.Fatal(err)
	}
	out := mkBuf(t, vm, 128<<10, 0)
	if err := set.CopyFromMRAM(0, 0, out, 128<<10); err != nil {
		t.Fatal(err)
	}
	if count(vm, "frontend.cache.misses") != 0 {
		t.Error("reads larger than the cache window must bypass it")
	}
	if !bytes.Equal(out.Data[:128<<10], src.Data[:128<<10]) {
		t.Error("bypass read wrong")
	}
}

func TestCacheServesCorrectDataAfterBatchFlush(t *testing.T) {
	vm, _, set := stack(t, vmm.Full())
	a := mkBuf(t, vm, 512, 0xAA)
	if err := set.CopyToMRAM(1, 1024, a, 512); err != nil {
		t.Fatal(err)
	}
	out := mkBuf(t, vm, 512, 0)
	// The read must flush the batched write, then fill the cache with the
	// new content.
	if err := set.CopyFromMRAM(1, 1024, out, 512); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Data[:512], a.Data[:512]) {
		t.Error("read-after-batched-write returned stale data")
	}
}

func TestLaunchBootMessages(t *testing.T) {
	vm, _, set := stack(t, vmm.Options{})
	if err := set.Load("noop"); err != nil {
		t.Fatal(err)
	}
	before := count(vm, "frontend.messages")
	if err := set.Launch(); err != nil {
		t.Fatal(err)
	}
	first := count(vm, "frontend.messages") - before
	before = count(vm, "frontend.messages")
	if err := set.Launch(); err != nil {
		t.Fatal(err)
	}
	second := count(vm, "frontend.messages") - before
	if first <= second {
		t.Errorf("first launch after load (%d msgs) must exceed a relaunch (%d): the per-DPU boot sequence runs once", first, second)
	}
	if first < int64(4*10) {
		t.Errorf("first launch sent %d messages, want >= %d boot ops", first, 4*10)
	}
}

func TestMemoryOverhead(t *testing.T) {
	_, front, _ := stack(t, vmm.Full())
	// MRAM 1 MB -> 256 pages -> 8*256 B page table, plus 16-page prefetch
	// cache and 64-page batch buffer.
	want := int64(8*256 + 16*4096 + 64*4096)
	if got := front.MemoryOverheadBytes(); got != want {
		t.Errorf("overhead = %d, want %d", got, want)
	}
}

func TestReleaseDetaches(t *testing.T) {
	vm, front, set := stack(t, vmm.Full())
	if !front.Attached() {
		t.Fatal("AllocSet must attach")
	}
	if err := set.Free(); err != nil {
		t.Fatal(err)
	}
	if front.Attached() {
		t.Error("Free must detach the device")
	}
	if vm.Backends()[0].Rank() != nil {
		t.Error("backend must drop the rank")
	}
}

// TestBatchOversizedWriteFallsBack: a write whose packed record exceeds an
// empty batch buffer must ride the unbatched matrix path. Before the fix the
// staging copy silently clipped the payload to the buffer, corrupting MRAM.
func TestBatchOversizedWriteFallsBack(t *testing.T) {
	vm, _, set := stack(t, vmm.Options{
		Batch: true,
		// One-page buffers under a larger batching threshold so an
		// oversized write passes the threshold check and reaches staging.
		Driver: driver.Options{BatchPages: 1, BatchThreshold: 16 << 10},
	})
	capacity := 1 * hostmem.PageSize
	small := mkBuf(t, vm, 256, 0x5a)
	if err := set.CopyToMRAM(0, 8192, small, 256); err != nil {
		t.Fatal(err)
	}
	big := mkBuf(t, vm, capacity+8, 0xa5)
	if err := set.CopyToMRAM(0, 0, big, capacity+8); err != nil {
		t.Fatal(err)
	}
	if got := count(vm, "frontend.batch.fallbacks"); got != 1 {
		t.Errorf("fallbacks = %d, want 1", got)
	}
	if got := count(vm, "frontend.batch.appends"); got != 1 {
		t.Errorf("batched writes = %d, want 1 (the small write only)", got)
	}
	out := mkBuf(t, vm, capacity+8, 0)
	if err := set.CopyFromMRAM(0, 0, out, capacity+8); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Data, big.Data) {
		t.Error("oversized write read back corrupted")
	}
	outSmall := mkBuf(t, vm, 256, 0)
	if err := set.CopyFromMRAM(0, 8192, outSmall, 256); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(outSmall.Data, small.Data) {
		t.Error("staged small write lost across the fallback flush")
	}
}
