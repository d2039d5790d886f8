package vpim_test

import (
	"encoding/binary"
	"testing"

	vpim "repro"
)

// countZerosKernel reproduces the paper's Fig. 2 example: each tasklet scans
// its slice of the DPU's partition and counts zero words, accumulating into
// the zero_count host variable.
func countZerosKernel() *vpim.Kernel {
	return &vpim.Kernel{
		Name:      "bin/count_zeros",
		Tasklets:  16,
		CodeBytes: 4 << 10,
		Symbols: []vpim.Symbol{
			{Name: "zero_count", Bytes: 8},
			{Name: "partition_size", Bytes: 4},
		},
		Run: countZerosTasklet,
	}
}

// countZerosTasklet is the kernel body: Partition gives the tasklet its
// words, and it reads them as []uint32 blocks of 2 KiB.
func countZerosTasklet(ctx *vpim.KernelCtx) error {
	if ctx.Me() == 0 {
		ctx.ResetHeap()
	}
	ctx.Barrier()
	partBytes, err := ctx.HostU32("partition_size")
	if err != nil {
		return err
	}
	buf, err := ctx.AllocU32(512)
	if err != nil {
		return err
	}
	start, end := ctx.Partition(int(partBytes) / 4)
	var count uint64
	for off := start; off < end; off += len(buf) {
		w := buf[:min(len(buf), end-off)]
		if err := ctx.ReadU32(int64(off)*4, w); err != nil {
			return err
		}
		for _, v := range w {
			if v == 0 {
				count++
			}
		}
		ctx.Tick(int64(len(w)) * 4)
	}
	return ctx.AddHostU64("zero_count", count)
}

// runCountZeros runs the Fig. 2a host program in the given environment and
// returns the total zero count.
func runCountZeros(t *testing.T, env vpim.Env, nrDPUs int, data []uint32) uint64 {
	t.Helper()
	set, err := env.AllocSet(nrDPUs)
	if err != nil {
		t.Fatalf("AllocSet: %v", err)
	}
	if err := set.Load("bin/count_zeros"); err != nil {
		t.Fatalf("Load: %v", err)
	}
	each := len(data) / nrDPUs
	eachBytes := each * 4
	buf, err := env.AllocBuffer(len(data) * 4)
	if err != nil {
		t.Fatalf("AllocBuffer: %v", err)
	}
	for i, v := range data {
		binary.LittleEndian.PutUint32(buf.Data[4*i:], v)
	}
	var sizeBytes [4]byte
	binary.LittleEndian.PutUint32(sizeBytes[:], uint32(eachBytes))
	if err := set.BroadcastSym("partition_size", 0, sizeBytes[:]); err != nil {
		t.Fatalf("BroadcastSym: %v", err)
	}
	for d := 0; d < nrDPUs; d++ {
		sub := vpim.Buffer{GPA: buf.GPA + uint64(d*eachBytes), Data: buf.Data[d*eachBytes : (d+1)*eachBytes]}
		if err := set.PrepareXfer(d, sub); err != nil {
			t.Fatalf("PrepareXfer: %v", err)
		}
	}
	if err := set.PushXfer(vpim.ToDPU, 0, eachBytes); err != nil {
		t.Fatalf("PushXfer: %v", err)
	}
	if err := set.Launch(); err != nil {
		t.Fatalf("Launch: %v", err)
	}
	var total uint64
	for d := 0; d < nrDPUs; d++ {
		var cnt [8]byte
		if err := set.CopyFromSym(d, "zero_count", 0, cnt[:]); err != nil {
			t.Fatalf("CopyFromSym: %v", err)
		}
		total += binary.LittleEndian.Uint64(cnt[:])
	}
	if err := set.Free(); err != nil {
		t.Fatalf("Free: %v", err)
	}
	return total
}

func TestCountZerosNativeVsVirtualized(t *testing.T) {
	host, err := vpim.NewHost(vpim.HostConfig{Ranks: 1, DPUsPerRank: 8, MRAMBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	host.Registry().MustRegister(countZerosKernel())

	const nrDPUs = 8
	data := make([]uint32, 64<<10)
	want := uint64(0)
	for i := range data {
		if i%7 == 0 {
			data[i] = 0
			want++
		} else {
			data[i] = uint32(i)
		}
	}

	nativeEnv := host.NativeEnv()
	got := runCountZeros(t, nativeEnv, nrDPUs, data)
	if got != want {
		t.Errorf("native count = %d, want %d", got, want)
	}
	nativeTime := nativeEnv.Timeline().Now()
	if nativeTime <= 0 {
		t.Error("native execution consumed no virtual time")
	}

	vm, err := host.NewVM(vpim.VMConfig{Name: "tvm", Options: vpim.FullOptions()})
	if err != nil {
		t.Fatal(err)
	}
	got = runCountZeros(t, vm, nrDPUs, data)
	if got != want {
		t.Errorf("vPIM count = %d, want %d", got, want)
	}
	vmTime := vm.Timeline().Now() - vm.BootTime()
	if vmTime <= nativeTime {
		t.Errorf("vPIM time %v should exceed native %v", vmTime, nativeTime)
	}
	t.Logf("native=%v vPIM=%v overhead=%.2fx exits=%d",
		nativeTime, vmTime, float64(vmTime)/float64(nativeTime), vm.KVM().Exits())
}
