package upmem_test

import (
	"testing"

	"repro/internal/manager"
	"repro/internal/native"
	"repro/internal/pim"
	"repro/internal/sdk"
	"repro/internal/upmem"
	"repro/internal/vmm"
)

func newMachine(t *testing.T, dpus int, mram int64) (*pim.Machine, *manager.Manager) {
	t.Helper()
	mach, err := pim.NewMachine(pim.MachineConfig{
		Ranks: 1,
		Rank:  pim.RankConfig{DPUs: dpus, MRAMBytes: mram},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := upmem.Register(mach.Registry()); err != nil {
		t.Fatal(err)
	}
	return mach, manager.New(mach, manager.Options{})
}

func newVM(t *testing.T, mach *pim.Machine, mgr *manager.Manager, opts vmm.Options) *vmm.VM {
	t.Helper()
	vm, err := vmm.NewVM(mach, mgr, vmm.Config{Name: "t", Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	return vm
}

func TestChecksumNative(t *testing.T) {
	mach, mgr := newMachine(t, 8, 8<<20)
	env := native.NewEnv(mach, mgr, 1<<30)
	if err := upmem.RunChecksum(env, upmem.ChecksumParams{DPUs: 8, BytesPerDPU: 4 << 20}); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumVPIM(t *testing.T) {
	mach, mgr := newMachine(t, 8, 8<<20)
	vm := newVM(t, mach, mgr, vmm.Full())
	if err := upmem.RunChecksum(vm, upmem.ChecksumParams{DPUs: 8, BytesPerDPU: 4 << 20}); err != nil {
		t.Fatal(err)
	}
	// CI polls dominate the launch; confirm the poll traffic exists.
	rank, err := mach.Rank(0)
	if err != nil {
		t.Fatal(err)
	}
	if rank.CI().Ops() < 10 {
		t.Errorf("expected CI status-poll traffic, got %d ops", rank.CI().Ops())
	}
}

// TestChecksumOverheadShrinksWithSize reproduces the Fig. 9c trend: the
// relative virtualization overhead decreases as the transfer grows, because
// the fixed per-message cost amortizes.
func TestChecksumOverheadShrinksWithSize(t *testing.T) {
	overhead := func(bytesPerDPU int) float64 {
		mach, mgr := newMachine(t, 8, 16<<20)
		env := native.NewEnv(mach, mgr, 1<<30)
		if err := upmem.RunChecksum(env, upmem.ChecksumParams{DPUs: 8, BytesPerDPU: bytesPerDPU}); err != nil {
			t.Fatal(err)
		}
		nat := env.Timeline().Now()

		mach2, mgr2 := newMachine(t, 8, 16<<20)
		vm := newVM(t, mach2, mgr2, vmm.Full())
		before := vm.Timeline().Now()
		if err := upmem.RunChecksum(vm, upmem.ChecksumParams{DPUs: 8, BytesPerDPU: bytesPerDPU}); err != nil {
			t.Fatal(err)
		}
		// Exclude the one-time rank allocation from the comparison by
		// subtracting the manager latency recorded on the tracker.
		vt := vm.Timeline().Now() - before - vm.Tracker().Get("op:alloc")
		return float64(vt) / float64(nat)
	}
	small := overhead(512 << 10)
	large := overhead(8 << 20)
	if small <= large {
		t.Errorf("overhead should shrink with size: small=%.3f large=%.3f", small, large)
	}
	t.Logf("overhead small=%.3fx large=%.3fx", small, large)
}

func TestIndexSearchNative(t *testing.T) {
	mach, mgr := newMachine(t, 8, 8<<20)
	env := native.NewEnv(mach, mgr, 1<<30)
	p := upmem.IndexSearchParams{DPUs: 8, Docs: 200, TermsPerDoc: 60, Queries: 64, BatchSize: 32}
	if err := upmem.RunIndexSearch(env, p); err != nil {
		t.Fatal(err)
	}
}

func TestIndexSearchVPIM(t *testing.T) {
	mach, mgr := newMachine(t, 8, 8<<20)
	vm := newVM(t, mach, mgr, vmm.Full())
	p := upmem.IndexSearchParams{DPUs: 8, Docs: 200, TermsPerDoc: 60, Queries: 64, BatchSize: 32}
	if err := upmem.RunIndexSearch(vm, p); err != nil {
		t.Fatal(err)
	}
}

// TestChecksumAllVariants runs the checksum through every Table 2 variant.
func TestChecksumAllVariants(t *testing.T) {
	for _, name := range vmm.Variants() {
		name := name
		t.Run(name, func(t *testing.T) {
			opts, err := vmm.Variant(name)
			if err != nil {
				t.Fatal(err)
			}
			mach, mgr := newMachine(t, 8, 8<<20)
			vm := newVM(t, mach, mgr, opts)
			if err := upmem.RunChecksum(vm, upmem.ChecksumParams{DPUs: 8, BytesPerDPU: 2 << 20}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

var _ sdk.Env = (*native.Env)(nil)

// TestIndexSearchDeterministic: the synthetic corpus and the whole run are
// seed-deterministic.
func TestIndexSearchDeterministic(t *testing.T) {
	run := func() int64 {
		mach, mgr := newMachine(t, 8, 8<<20)
		env := native.NewEnv(mach, mgr, 1<<30)
		p := upmem.IndexSearchParams{DPUs: 8, Docs: 100, TermsPerDoc: 40, Queries: 16, BatchSize: 8}
		if err := upmem.RunIndexSearch(env, p); err != nil {
			t.Fatal(err)
		}
		return int64(env.Timeline().Now())
	}
	if a, b := run(), run(); a != b {
		t.Errorf("index search not deterministic: %d vs %d", a, b)
	}
}

// TestChecksumRejectsUnalignedSize: the input must be 8-byte aligned (DMA
// constraint); the error must be explicit rather than a silent truncation.
func TestChecksumRejectsUnalignedSize(t *testing.T) {
	mach, mgr := newMachine(t, 8, 8<<20)
	env := native.NewEnv(mach, mgr, 1<<30)
	err := upmem.RunChecksum(env, upmem.ChecksumParams{DPUs: 8, BytesPerDPU: 4<<20 + 2})
	if err == nil {
		t.Error("unaligned checksum size must be rejected")
	}
}

// TestChecksumMultiRank spans several ranks.
func TestChecksumMultiRank(t *testing.T) {
	mach, err := pim.NewMachine(pim.MachineConfig{
		Ranks: 2,
		Rank:  pim.RankConfig{DPUs: 4, MRAMBytes: 8 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := upmem.Register(mach.Registry()); err != nil {
		t.Fatal(err)
	}
	mgr := manager.New(mach, manager.Options{})
	vm, err := vmm.NewVM(mach, mgr, vmm.Config{Name: "m", VUPMEMs: 2, Options: vmm.Full()})
	if err != nil {
		t.Fatal(err)
	}
	if err := upmem.RunChecksum(vm, upmem.ChecksumParams{DPUs: 8, BytesPerDPU: 2 << 20}); err != nil {
		t.Fatal(err)
	}
}

// TestIndexSearchFreesGuestBuffers runs index search over and over in one
// VM whose guest RAM holds the buffers of a few runs only: each run must
// free what it allocated, or a later one fails with guest memory exhausted.
func TestIndexSearchFreesGuestBuffers(t *testing.T) {
	mach, mgr := newMachine(t, 8, 8<<20)
	vm, err := vmm.NewVM(mach, mgr, vmm.Config{Name: "t", MemBytes: 4 << 20, Options: vmm.Full()})
	if err != nil {
		t.Fatal(err)
	}
	p := upmem.IndexSearchParams{DPUs: 8, Docs: 200, TermsPerDoc: 60, Queries: 64, BatchSize: 32}
	for run := range 20 {
		if err := upmem.RunIndexSearch(vm, p); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
	}
}
