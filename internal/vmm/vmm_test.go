package vmm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/hostmem"
	"repro/internal/manager"
	"repro/internal/native"
	"repro/internal/obs"
	"repro/internal/pim"
	"repro/internal/prim"
	"repro/internal/sdk"
	"repro/internal/upmem"
)

func testStack(t testing.TB, ranks int) (*pim.Machine, *manager.Manager) {
	t.Helper()
	mach, err := pim.NewMachine(pim.MachineConfig{
		Ranks: ranks,
		Rank:  pim.RankConfig{DPUs: 4, MRAMBytes: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	mach.Registry().MustRegister(&pim.Kernel{
		Name: "noop", Tasklets: 2, CodeBytes: 512,
		Symbols: []pim.Symbol{{Name: "v", Bytes: 4}},
		Run: func(ctx *pim.Ctx) error {
			ctx.Tick(100)
			return nil
		},
	})
	// Short retry budget: exhaustion tests would otherwise really sleep the
	// manager's default 100ms+ poll intervals.
	return mach, manager.New(mach, manager.Options{Retries: 2, RetryTimeout: 2 * time.Millisecond})
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.VCPUs != 16 || cfg.VUPMEMs != 1 || cfg.Name == "" {
		t.Errorf("defaults: %+v", cfg)
	}
	if cfg.Options.Engine != cost.EngineC {
		t.Error("default engine must be C")
	}
}

func TestVariants(t *testing.T) {
	for _, name := range Variants() {
		if _, err := Variant(name); err != nil {
			t.Errorf("Variant(%q): %v", name, err)
		}
	}
	if _, err := Variant("nope"); err == nil {
		t.Error("unknown variant must fail")
	}
	full := Full()
	if !full.Prefetch || !full.Batch || !full.Parallel || full.Engine != cost.EngineC {
		t.Errorf("Full() = %+v", full)
	}
	naive := Naive()
	if naive.Prefetch || naive.Batch || naive.Parallel || naive.Engine != cost.EngineRust {
		t.Errorf("Naive() = %+v", naive)
	}
}

func TestBootTime(t *testing.T) {
	mach, mgr := testStack(t, 4)
	vm, err := NewVM(mach, mgr, Config{Name: "b", VUPMEMs: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Section 3.2: <= 2ms per vUPMEM device.
	if vm.BootTime() > 4*2*time.Millisecond {
		t.Errorf("boot = %v, exceeds 2ms/device", vm.BootTime())
	}
	if vm.BootTime() <= 0 {
		t.Error("boot must consume time")
	}
}

// TestBootCostIndependentOfGuestRAM: guest RAM commits per allocation, so a
// 128 GiB VM boots with the same host allocations as a 256 MiB one. It
// reads the heap's cumulative allocation, the quantity a benchmark reports
// as B/op, over a fixed number of boots.
func TestBootCostIndependentOfGuestRAM(t *testing.T) {
	mach, mgr := testStack(t, 1)
	bytesPerBoot := func(memBytes int64) int64 {
		const boots = 16
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < boots; i++ {
			if _, err := NewVM(mach, mgr, Config{Name: "boot", MemBytes: memBytes}); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc-before.TotalAlloc) / boots
	}
	small, huge := bytesPerBoot(256<<20), bytesPerBoot(128<<30)
	if d := huge - small; d > 64<<10 || d < -64<<10 {
		t.Errorf("boot allocates %d B at 128 GiB and %d B at 256 MiB; want within 64 KiB", huge, small)
	}
}

// BenchmarkNewVMGuestRAM times one VM boot per guest RAM size.
func BenchmarkNewVMGuestRAM(b *testing.B) {
	mach, mgr := testStack(b, 1)
	for _, size := range []struct {
		name  string
		bytes int64
	}{{"256MiB", 256 << 20}, {"4GiB", 4 << 30}, {"128GiB", 128 << 30}} {
		b.Run(size.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewVM(mach, mgr, Config{Name: "boot", MemBytes: size.bytes}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestNegativeGuestRAM(t *testing.T) {
	mach, mgr := testStack(t, 1)
	if _, err := NewVM(mach, mgr, Config{MemBytes: -1 << 20}); err == nil {
		t.Error("negative guest RAM must fail")
	}
}

func TestTooManyDevices(t *testing.T) {
	mach, mgr := testStack(t, 2)
	if _, err := NewVM(mach, mgr, Config{VUPMEMs: 3}); err == nil {
		t.Error("more vUPMEMs than ranks must fail")
	}
}

// TestEndToEnd drives the full virtio path: attach, config, load, write,
// launch, symbol ops, read, release.
func TestEndToEnd(t *testing.T) {
	mach, mgr := testStack(t, 2)
	vm, err := NewVM(mach, mgr, Config{Name: "e2e", VUPMEMs: 2, Options: Full()})
	if err != nil {
		t.Fatal(err)
	}
	set, err := vm.AllocSet(8) // spans both ranks
	if err != nil {
		t.Fatal(err)
	}
	if set.NumRanks() != 2 {
		t.Fatalf("set spans %d ranks, want 2", set.NumRanks())
	}
	if err := set.Load("noop"); err != nil {
		t.Fatal(err)
	}

	data := bytes.Repeat([]byte{0xAB}, 8192)
	buf, err := vm.AllocBuffer(len(data))
	if err != nil {
		t.Fatal(err)
	}
	copy(buf.Data, data)
	for d := 0; d < 8; d++ {
		if err := set.PrepareXfer(d, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := set.PushXfer(sdk.ToDPU, 0, len(data)); err != nil {
		t.Fatal(err)
	}
	if err := set.Launch(); err != nil {
		t.Fatal(err)
	}
	// Small writes are batched and deferred; the launch flushed them, so
	// the data must now physically be in each rank's MRAM.
	for ri := 0; ri < 2; ri++ {
		rank := vm.Backends()[ri].Rank()
		if rank == nil {
			t.Fatalf("rank %d not attached", ri)
		}
		got := make([]byte, len(data))
		if err := rank.ReadDPU(2, 0, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("rank %d MRAM content mismatch", ri)
		}
	}
	if err := set.BroadcastSym("v", 0, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	var sym [4]byte
	if err := set.CopyFromSym(5, "v", 0, sym[:]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sym[:], []byte{1, 2, 3, 4}) {
		t.Errorf("symbol round trip = %v", sym)
	}

	// One buffer per DPU: the two ranks' reads run concurrently, so DPUs
	// sharing a destination buffer would race on its bytes.
	outs := make([]hostmem.Buffer, 8)
	for d := range outs {
		if outs[d], err = vm.AllocBuffer(len(data)); err != nil {
			t.Fatal(err)
		}
		if err := set.PrepareXfer(d, outs[d]); err != nil {
			t.Fatal(err)
		}
	}
	if err := set.PushXfer(sdk.FromDPU, 0, len(data)); err != nil {
		t.Fatal(err)
	}
	for d, out := range outs {
		if !bytes.Equal(out.Data[:len(data)], data) {
			t.Errorf("read-from-rank returned wrong data for dpu %d", d)
		}
	}

	if err := set.Free(); err != nil {
		t.Fatal(err)
	}
	for ri := 0; ri < 2; ri++ {
		if vm.Backends()[ri].Rank() != nil {
			t.Errorf("rank %d still attached after free", ri)
		}
	}
	if vm.KVM().Exits() == 0 {
		t.Error("the virtualized path must produce VMEXITs")
	}
}

// TestRankReuseAfterFree checks the manager's NANA reuse through the VM
// path: reallocating inside the same VM gets the same rank without reset.
func TestRankReuseAfterFree(t *testing.T) {
	mach, mgr := testStack(t, 1)
	vm, err := NewVM(mach, mgr, Config{Name: "r", Options: Full()})
	if err != nil {
		t.Fatal(err)
	}
	set, err := vm.AllocSet(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Free(); err != nil {
		t.Fatal(err)
	}
	if _, err := vm.AllocSet(4); err != nil {
		t.Fatalf("re-alloc: %v", err)
	}
	if mgr.Resets() != 0 {
		t.Error("same-device reattach must reuse the NANA rank without reset")
	}
}

// TestIsolationBetweenVMs checks R2: a second VM never sees the first VM's
// rank contents.
func TestIsolationBetweenVMs(t *testing.T) {
	mach, mgr := testStack(t, 1)
	vmA, err := NewVM(mach, mgr, Config{Name: "A", Options: Full()})
	if err != nil {
		t.Fatal(err)
	}
	setA, err := vmA.AllocSet(4)
	if err != nil {
		t.Fatal(err)
	}
	secret, err := vmA.AllocBuffer(4096)
	if err != nil {
		t.Fatal(err)
	}
	copy(secret.Data, "top secret tenant data")
	if err := setA.PrepareXfer(0, secret); err != nil {
		t.Fatal(err)
	}
	if err := setA.PushXfer(sdk.ToDPU, 0, 4096); err != nil {
		t.Fatal(err)
	}
	if err := setA.Free(); err != nil {
		t.Fatal(err)
	}

	vmB, err := NewVM(mach, mgr, Config{Name: "B", Options: Full()})
	if err != nil {
		t.Fatal(err)
	}
	setB, err := vmB.AllocSet(4)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := vmB.AllocBuffer(4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := setB.PrepareXfer(0, probe); err != nil {
		t.Fatal(err)
	}
	if err := setB.PushXfer(sdk.FromDPU, 0, 4096); err != nil {
		t.Fatal(err)
	}
	for _, b := range probe.Data {
		if b != 0 {
			t.Fatal("tenant B read tenant A's data: reset missing")
		}
	}
	if mgr.Resets() == 0 {
		t.Error("cross-tenant reallocation must reset the rank")
	}
}

func TestAllocSetInsufficient(t *testing.T) {
	mach, mgr := testStack(t, 2)
	vm, err := NewVM(mach, mgr, Config{Name: "s", VUPMEMs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.AllocSet(5); !errors.Is(err, sdk.ErrNotEnoughDPUs) {
		t.Errorf("want ErrNotEnoughDPUs, got %v", err)
	}
}

// TestVariantOrdering: for a bulk write workload, rust must be slower than
// C, and sequential multi-rank handling slower than parallel.
func TestVariantOrdering(t *testing.T) {
	write := func(opts Options) time.Duration {
		mach, mgr := testStack(t, 2)
		vm, err := NewVM(mach, mgr, Config{Name: "v", VUPMEMs: 2, Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		set, err := vm.AllocSet(8)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := vm.AllocBuffer(256 << 10)
		if err != nil {
			t.Fatal(err)
		}
		start := vm.Timeline().Now()
		for d := 0; d < 8; d++ {
			if err := set.PrepareXfer(d, buf); err != nil {
				t.Fatal(err)
			}
		}
		if err := set.PushXfer(sdk.ToDPU, 0, 256<<10); err != nil {
			t.Fatal(err)
		}
		return vm.Timeline().Now() - start
	}
	c := write(Options{Engine: cost.EngineC})
	rust := write(Options{Engine: cost.EngineRust})
	if rust <= c {
		t.Errorf("rust engine (%v) must be slower than C (%v)", rust, c)
	}
	seq := write(Options{Engine: cost.EngineC})
	par := write(Options{Engine: cost.EngineC, Parallel: true})
	if par >= seq {
		t.Errorf("parallel multi-rank (%v) must beat sequential (%v)", par, seq)
	}
}

// TestAllocSetFailureReleasesRanks: a booking that cannot cover the request
// must unwind its partial attachments. Before the fix, AllocSet returned
// ErrNotEnoughDPUs with the already-attached devices still holding their
// ranks in ALLO — leaked capacity the tenant's own retry would then
// deadlock against.
func TestAllocSetFailureReleasesRanks(t *testing.T) {
	mach, mgr := testStack(t, 2)
	vm, err := NewVM(mach, mgr, Config{Name: "u", VUPMEMs: 2, Options: Full()})
	if err != nil {
		t.Fatal(err)
	}
	// 2 ranks x 4 DPUs = 8 available; asking for 9 attaches both devices
	// before the coverage check fails.
	if _, err := vm.AllocSet(9); !errors.Is(err, sdk.ErrNotEnoughDPUs) {
		t.Fatalf("AllocSet(9) = %v, want ErrNotEnoughDPUs", err)
	}
	for _, f := range vm.Frontends() {
		if f.Attached() {
			t.Errorf("%s still attached after failed booking", f.ID())
		}
	}
	for i, st := range mgr.States() {
		if st == manager.StateALLO {
			t.Errorf("rank %d still ALLO after failed booking", i)
		}
	}
	// The unwound capacity must be immediately bookable again.
	if _, err := vm.AllocSet(8); err != nil {
		t.Fatalf("retry after failed booking: %v", err)
	}
}

// TestGuestLaunchDeadlockFails: a guest sets the checksum length 64 words
// past its 1 MiB banks, so each DPU's last tasklet fails its MRAM read while
// the other fifteen wait at the second barrier. The launch must fail with
// an error naming a DPU instead of hanging with the rank busy, and the rank
// must go back to the manager and serve the next tenant.
func TestGuestLaunchDeadlockFails(t *testing.T) {
	mach, mgr := testStack(t, 1)
	if err := upmem.Register(mach.Registry()); err != nil {
		t.Fatal(err)
	}
	vm, err := NewVM(mach, mgr, Config{Name: "hostile", Options: Full()})
	if err != nil {
		t.Fatal(err)
	}
	set, err := vm.AllocSet(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Load("upmem/checksum"); err != nil {
		t.Fatal(err)
	}
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], 1<<20/4+64)
	if err := set.BroadcastSym("ck_n", 0, n[:]); err != nil {
		t.Fatal(err)
	}
	launched := make(chan error, 1)
	go func() { launched <- set.Launch() }()
	select {
	case err = <-launched:
	case <-time.After(10 * time.Second):
		t.Fatal("guest launch did not return within 10s")
	}
	if err == nil || !strings.Contains(err.Error(), "dpu 0: ") || !strings.Contains(err.Error(), "deadlocked") {
		t.Fatalf("launch = %v, want a deadlock naming dpu 0", err)
	}
	if err := set.Free(); err != nil {
		t.Fatalf("free after the failed launch: %v", err)
	}
	other, err := NewVM(mach, mgr, Config{Name: "next", Options: Full()})
	if err != nil {
		t.Fatal(err)
	}
	if err := upmem.RunChecksum(other, upmem.ChecksumParams{DPUs: 4, BytesPerDPU: 64 << 10}); err != nil {
		t.Fatalf("next tenant on the rank: %v", err)
	}
}

// TestGuestKernelPanicIsDPUFault: a guest feeds prim/hst-l pixels wider than
// its 12-bit depth, so the kernel indexes past its histogram and panics. The
// launch must fail with a DPU fault naming dpu 0 instead of killing the host
// process, and the next tenant must run checksum bit-exact on the same rank.
func TestGuestKernelPanicIsDPUFault(t *testing.T) {
	mach, mgr := testStack(t, 1)
	if err := prim.Register(mach.Registry()); err != nil {
		t.Fatal(err)
	}
	if err := upmem.Register(mach.Registry()); err != nil {
		t.Fatal(err)
	}
	vm, err := NewVM(mach, mgr, Config{Name: "hostile", Options: Full()})
	if err != nil {
		t.Fatal(err)
	}
	set, err := vm.AllocSet(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Load("prim/hst-l"); err != nil {
		t.Fatal(err)
	}
	pixels, err := vm.AllocBuffer(4 << 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pixels.Data {
		pixels.Data[i] = 0xFF
	}
	if err := set.CopyToMRAM(0, 0, pixels, len(pixels.Data)); err != nil {
		t.Fatal(err)
	}
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], 1024)
	if err := set.BroadcastSym("hst_n", 0, n[:]); err != nil {
		t.Fatal(err)
	}
	launched := make(chan error, 1)
	go func() { launched <- set.Launch() }()
	select {
	case err = <-launched:
	case <-time.After(10 * time.Second):
		t.Fatal("guest launch did not return within 10s")
	}
	if !errors.Is(err, pim.ErrDPUFault) || !strings.Contains(err.Error(), "dpu 0: ") {
		t.Fatalf("launch = %v, want a DPU fault naming dpu 0", err)
	}
	if n := obs.Aggregate(vm.Metrics())["backend.dpu.faults"]; n != 1 {
		t.Errorf("backend.dpu.faults = %d, want 1", n)
	}
	if err := set.Free(); err != nil {
		t.Fatalf("free after the failed launch: %v", err)
	}
	other, err := NewVM(mach, mgr, Config{Name: "next", Options: Full()})
	if err != nil {
		t.Fatal(err)
	}
	if err := upmem.RunChecksum(other, upmem.ChecksumParams{DPUs: 4, BytesPerDPU: 64 << 10}); err != nil {
		t.Fatalf("next tenant on the rank: %v", err)
	}
}

// TestLaunchRejectsBadDPUList: a launch that names a DPU outside the rank
// (NumDPUs, -1) or one DPU twice fails with pim.ErrBadDPU under
// vmm.Full(), as it does natively (transparency, R3), instead of running
// the DPUs the mask could carry and reporting success.
func TestLaunchRejectsBadDPUList(t *testing.T) {
	mach, mgr := testStack(t, 1)
	rank, err := mach.Rank(0)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := NewVM(mach, mgr, Config{Name: "guest", Options: Full()})
	if err != nil {
		t.Fatal(err)
	}
	for _, env := range []struct {
		name string
		env  sdk.Env
	}{
		{"native", native.NewEnv(mach, mgr, 64<<20)},
		{"vPIM", vm},
	} {
		set, err := env.env.AllocSet(rank.NumDPUs())
		if err != nil {
			t.Fatal(err)
		}
		if err := set.Load("noop"); err != nil {
			t.Fatal(err)
		}
		for _, dpus := range [][]int{{rank.NumDPUs()}, {-1}, {0, 1, 1}} {
			err := set.Devices()[0].Launch(dpus, env.env.Timeline())
			if !errors.Is(err, pim.ErrBadDPU) {
				t.Errorf("%s: launch on DPUs %v of a %d-DPU rank = %v, want pim.ErrBadDPU",
					env.name, dpus, rank.NumDPUs(), err)
			}
		}
		if err := set.Free(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFreeReleasesRankAfterPendingFailure: a request that fails only when
// Free drains it — a batched write past the banks, or a symbol write that
// stays staged in the pipelined window — must not keep the rank. Free
// reports the failure, the manager holds no rank for the guest, and the
// next tenant runs checksum on the rank. Release used to return the
// failure before handing the rank back, and the freed set could never
// release it again.
func TestFreeReleasesRankAfterPendingFailure(t *testing.T) {
	pipe := Full()
	pipe.Pipeline = true
	for _, tc := range []struct {
		name  string
		opts  Options
		write func(vm *VM, set *sdk.Set) error
	}{
		{"batched write past the banks", Full(), func(vm *VM, set *sdk.Set) error {
			buf, err := vm.AllocBuffer(8)
			if err != nil {
				return err
			}
			return set.CopyToMRAM(0, 1<<20+16, buf, 8)
		}},
		{"staged write to an unknown symbol", pipe, func(_ *VM, set *sdk.Set) error {
			return set.CopyToSym(0, "no_such_symbol", 0, []byte{1, 2, 3, 4})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mach, mgr := testStack(t, 1)
			if err := upmem.Register(mach.Registry()); err != nil {
				t.Fatal(err)
			}
			vm, err := NewVM(mach, mgr, Config{Name: "guest", Options: tc.opts})
			if err != nil {
				t.Fatal(err)
			}
			set, err := vm.AllocSet(4)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.write(vm, set); err != nil {
				t.Fatalf("the failure must stay pending until Free: %v", err)
			}
			if err := set.Free(); err == nil {
				t.Error("Free must report the pending failure")
			}
			for i, st := range mgr.States() {
				if st == manager.StateALLO {
					t.Fatalf("rank %d still ALLO for %q after Free", i, mgr.Owners()[i])
				}
			}
			other, err := NewVM(mach, mgr, Config{Name: "next", Options: Full()})
			if err != nil {
				t.Fatal(err)
			}
			if err := upmem.RunChecksum(other, upmem.ChecksumParams{DPUs: 4, BytesPerDPU: 64 << 10}); err != nil {
				t.Fatalf("next tenant on the rank: %v", err)
			}
		})
	}
}
