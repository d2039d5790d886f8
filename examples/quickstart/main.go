// Quickstart: the paper's Fig. 2 example — count the zeros in an array —
// written once against the SDK and executed twice: natively (performance
// mode) and inside a vPIM microVM (safe mode through the virtio-pim stack).
// The program prints both virtual execution times and the virtualization
// overhead.
//
//	go run ./examples/quickstart
package main

import (
	"encoding/binary"
	"fmt"
	"os"

	vpim "repro"
)

const (
	nrDPUs   = 16
	elements = 1 << 20
	binary00 = "examples/count_zeros"
)

// countZerosKernel is the DPU-side program (Fig. 2b): each tasklet scans its
// slice of the partition and accumulates into the zero_count host variable.
func countZerosKernel() *vpim.Kernel {
	return &vpim.Kernel{
		Name:      binary00,
		Tasklets:  16,
		CodeBytes: 4 << 10,
		Symbols: []vpim.Symbol{
			{Name: "zero_count", Bytes: 8},
			{Name: "partition_size", Bytes: 4},
		},
		Run: countZerosTasklet,
	}
}

// countZerosTasklet is the DPU-side main, run once per tasklet: the one way
// to write a kernel. Its body is a named function (Go compiles a closure
// returned by an inlined constructor without inlining the calls in it). It
// takes its share of the partition's words with Partition, reads them into
// a []uint32 WRAM buffer one 2 KiB block at a time, and charges Tick once
// per block: the per-word work is plain slice indexing.
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

// countZeros is the host-side program (Fig. 2a): allocate, load, distribute,
// launch, reduce.
func countZeros(env vpim.Env, data []uint32) (uint64, error) {
	set, err := env.AllocSet(nrDPUs)
	if err != nil {
		return 0, err
	}
	defer func() { _ = set.Free() }()
	if err := set.Load(binary00); err != nil {
		return 0, err
	}

	each := len(data) / nrDPUs
	eachBytes := each * 4
	buf, err := env.AllocBuffer(len(data) * 4)
	if err != nil {
		return 0, err
	}
	for i, v := range data {
		binary.LittleEndian.PutUint32(buf.Data[4*i:], v)
	}

	var size [4]byte
	binary.LittleEndian.PutUint32(size[:], uint32(eachBytes))
	if err := set.BroadcastSym("partition_size", 0, size[:]); err != nil {
		return 0, err
	}
	for d := 0; d < nrDPUs; d++ {
		sub := vpim.Buffer{
			GPA:  buf.GPA + uint64(d*eachBytes),
			Data: buf.Data[d*eachBytes : (d+1)*eachBytes],
		}
		if err := set.PrepareXfer(d, sub); err != nil {
			return 0, err
		}
	}
	if err := set.PushXfer(vpim.ToDPU, 0, eachBytes); err != nil {
		return 0, err
	}
	if err := set.Launch(); err != nil {
		return 0, err
	}

	var total uint64
	for d := 0; d < nrDPUs; d++ {
		var cnt [8]byte
		if err := set.CopyFromSym(d, "zero_count", 0, cnt[:]); err != nil {
			return 0, err
		}
		total += binary.LittleEndian.Uint64(cnt[:])
	}
	return total, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	host, err := vpim.NewHost(vpim.HostConfig{Ranks: 1, DPUsPerRank: nrDPUs, MRAMBytes: 8 << 20})
	if err != nil {
		return err
	}
	host.Registry().MustRegister(countZerosKernel())

	data := make([]uint32, elements)
	want := uint64(0)
	for i := range data {
		if i%5 == 0 {
			want++
		} else {
			data[i] = uint32(i)
		}
	}

	native := host.NativeEnv()
	got, err := countZeros(native, data)
	if err != nil {
		return fmt.Errorf("native: %w", err)
	}
	fmt.Printf("native : %d zeros (expected %d) in %v virtual\n", got, want, native.Timeline().Now())

	vm, err := host.NewVM(vpim.VMConfig{Name: "quickstart", Options: vpim.FullOptions()})
	if err != nil {
		return err
	}
	got, err = countZeros(vm, data)
	if err != nil {
		return fmt.Errorf("vPIM: %w", err)
	}
	vmTime := vm.Timeline().Now() - vm.BootTime() - vm.Tracker().Get(vpim.OpAlloc)
	fmt.Printf("vPIM   : %d zeros (expected %d) in %v virtual (excl. boot + rank allocation)\n",
		got, want, vmTime)
	fmt.Printf("overhead: %.2fx with %d VMEXITs\n",
		float64(vmTime)/float64(native.Timeline().Now()), vm.KVM().Exits())
	return nil
}
