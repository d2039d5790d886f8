package bench

import (
	"testing"

	"repro/internal/hostmem"
	"repro/internal/manager"
	"repro/internal/pim"
	"repro/internal/sdk"
	"repro/internal/vmm"
)

// The checksum shape of the allocation benchmarks: one rank of 60 DPUs,
// 2 MiB per DPU (the paper's 8 MB checksum slice over the harness's default
// divisor).
const (
	iterDPUs  = 60
	iterBytes = (8 << 20) / 4
)

// iterPushPull performs one push + pull over every DPU of the set: the
// dpu_push_xfer pattern of the checksum workload. With bcast the push
// prepares the shared src[0] for every DPU, so it collapses into one wire
// row; the pull always reads into per-DPU buffers (reads never collapse).
func iterPushPull(set *sdk.Set, bcast bool, src, dst []hostmem.Buffer) error {
	for i := range src {
		buf := src[i]
		if bcast {
			buf = src[0]
		}
		if err := set.PrepareXfer(i, buf); err != nil {
			return err
		}
	}
	if err := set.PushXfer(sdk.ToDPU, 0, iterBytes); err != nil {
		return err
	}
	for i := range dst {
		if err := set.PrepareXfer(i, dst[i]); err != nil {
			return err
		}
	}
	return set.PushXfer(sdk.FromDPU, 0, iterBytes)
}

// benchIterAllocs measures steady-state allocations per push+pull iteration:
// the VM, DPU set and buffers are booted once outside the timed loop, so the
// allocs/op column isolates the per-transfer hot path (the pooled backend
// deserialization scratch, the pooled batch reassembly buffers and the
// frontend's reused row slice). The count follows -cpu: above 1 the row
// pool and the rank fan-out add their per-request shards, so compare runs
// at one -cpu value.
func benchIterAllocs(b *testing.B, bcast bool) {
	b.Helper()
	mach, err := pim.NewMachine(pim.MachineConfig{
		Ranks: 1,
		Rank:  pim.RankConfig{DPUs: iterDPUs, MRAMBytes: iterBytes},
	})
	if err != nil {
		b.Fatal(err)
	}
	opts := vmm.Full()
	opts.Bcast = bcast
	vm, err := vmm.NewVM(mach, manager.New(mach, manager.Options{}), vmm.Config{
		Name: "iterallocs", VCPUs: 16, Options: opts,
	})
	if err != nil {
		b.Fatal(err)
	}
	set, err := vm.AllocSet(iterDPUs)
	if err != nil {
		b.Fatal(err)
	}
	defer set.Free()
	src := make([]hostmem.Buffer, iterDPUs)
	dst := make([]hostmem.Buffer, iterDPUs)
	for i := range src {
		if src[i], err = vm.AllocBuffer(iterBytes); err != nil {
			b.Fatal(err)
		}
		if dst[i], err = vm.AllocBuffer(iterBytes); err != nil {
			b.Fatal(err)
		}
	}
	if err := iterPushPull(set, bcast, src, dst); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := iterPushPull(set, bcast, src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIterAllocsChecksum(b *testing.B) {
	benchIterAllocs(b, false)
}

func BenchmarkIterAllocsBcast(b *testing.B) {
	benchIterAllocs(b, true)
}
