package vmm

import (
	"testing"

	"repro/internal/manager"
	"repro/internal/pim"
	"repro/internal/upmem"
)

// bigRankVM boots a Full VM with memBytes of guest RAM on a one-rank
// machine of 60 DPUs with 8 MB MRAM each: a geometry whose frontend guest
// buffers (serialization scratch, prefetch cache, batch buffer) take about
// 20 MiB.
func bigRankVM(t *testing.T, memBytes int64) (*VM, *manager.Manager) {
	t.Helper()
	mach, err := pim.NewMachine(pim.MachineConfig{
		Ranks: 1,
		Rank:  pim.RankConfig{DPUs: 60, MRAMBytes: 8 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr := manager.New(mach, manager.Options{})
	vm, err := NewVM(mach, mgr, Config{Name: "vm", MemBytes: memBytes, Options: Full()})
	if err != nil {
		t.Fatal(err)
	}
	return vm, mgr
}

// TestReattachReusesGuestBuffers: a device allocates its guest buffers once
// and reuses them on every later attach to a rank of the same geometry.
// Before the fix each attach re-ran the buffer setup on a guest allocator
// that never frees, and a 256 MiB guest failed its 13th AllocSet/Free cycle
// with guest memory exhausted.
func TestReattachReusesGuestBuffers(t *testing.T) {
	vm, _ := bigRankVM(t, 256<<20)
	buf, err := vm.AllocBuffer(4096)
	if err != nil {
		t.Fatal(err)
	}
	swaps := func() int64 { return vm.Metrics()["hostmem.snapshot.swaps"] }
	var first int64
	for cycle := 0; cycle < 50; cycle++ {
		set, err := vm.AllocSet(60)
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if err := set.CopyToMRAM(cycle, 0, buf, len(buf.Data)); err != nil {
			t.Fatalf("cycle %d write: %v", cycle, err)
		}
		if err := set.CopyFromMRAM(cycle, 0, buf, len(buf.Data)); err != nil {
			t.Fatalf("cycle %d read: %v", cycle, err)
		}
		if cycle == 0 {
			first = swaps()
		} else if got := swaps(); got != first {
			t.Fatalf("cycle %d: hostmem.snapshot.swaps = %d, want %d as after the first attach", cycle, got, first)
		}
		if err := set.Free(); err != nil {
			t.Fatalf("cycle %d free: %v", cycle, err)
		}
	}
}

// TestAttachIsAllOrNothing: a guest too small for the frontend's buffers
// fails AllocSet, and the failed attach hands the granted rank back and
// leaves the device detached. Before the fix the rank stayed ALLO to the VM
// and the device reported itself attached over half-built buffers.
func TestAttachIsAllOrNothing(t *testing.T) {
	vm, mgr := bigRankVM(t, 1<<20)
	for attempt := 0; attempt < 2; attempt++ {
		if _, err := vm.AllocSet(60); err == nil {
			t.Fatalf("attempt %d: AllocSet succeeded in a 1 MiB guest", attempt)
		}
		if vm.Frontends()[0].Attached() {
			t.Errorf("attempt %d: device attached after a failed attach", attempt)
		}
		for i, owner := range mgr.Owners() {
			if owner != "" {
				t.Errorf("attempt %d: rank %d still owned by %q", attempt, i, owner)
			}
		}
	}
}

// TestChecksumJobsReuseGuestRAM: a guest whose RAM holds the device buffers
// and about ten checksum jobs' input runs a hundred jobs, because each job
// frees its buffers and the next one reuses the memory. Before checksum
// freed its input and result buffers, this guest ran out of memory at its
// eleventh job.
func TestChecksumJobsReuseGuestRAM(t *testing.T) {
	mach, mgr := testStack(t, 1)
	if err := upmem.Register(mach.Registry()); err != nil {
		t.Fatal(err)
	}
	vm, err := NewVM(mach, mgr, Config{Name: "long", MemBytes: 2 << 20, Options: Full()})
	if err != nil {
		t.Fatal(err)
	}
	for job := 0; job < 100; job++ {
		p := upmem.ChecksumParams{DPUs: 4, BytesPerDPU: 64 << 10, Seed: int64(job + 1)}
		if err := upmem.RunChecksum(vm, p); err != nil {
			t.Fatalf("job %d: %v", job, err)
		}
	}
}
