// Package upmem ports the two UPMEM-provided microbenchmarks the paper uses
// for its sensitivity and optimization studies: Checksum (dpu_demo) and the
// Wikipedia Index Search use case.
package upmem

import (
	"encoding/binary"
	"fmt"

	"repro/internal/hostmem"
	"repro/internal/pim"
	"repro/internal/prim"
	"repro/internal/sdk"
	"repro/internal/trace"
)

// ChecksumParams configures one checksum run (Section 5.3.1): the host
// generates a file of BytesPerDPU and every allocated DPU computes the same
// checksum over it — one write-to-rank carrying the file to each DPU, one
// small read-from-rank per DPU for the result, and thousands of CI status
// polls while the kernel runs.
type ChecksumParams struct {
	// DPUs is the number of DPUs (all compute the same task).
	DPUs int
	// BytesPerDPU is the input file size (60 MB in the paper's default).
	BytesPerDPU int
	// Seed makes the file deterministic; 0 selects 1.
	Seed int64
}

// checksumKernel sums the file's 32-bit words into a u64 stored at the end
// of the input region.
func checksumKernel() *pim.Kernel {
	return &pim.Kernel{
		Name:      "upmem/checksum",
		Tasklets:  16,
		CodeBytes: 4 << 10,
		Symbols:   []pim.Symbol{{Name: "ck_n", Bytes: 4}},
		Run:       runChecksumKernel,
	}
}

func runChecksumKernel(ctx *pim.Ctx) error {
	if ctx.Me() == 0 {
		ctx.ResetHeap()
	}
	ctx.Barrier()
	n32, err := ctx.HostU32("ck_n")
	if err != nil {
		return err
	}
	n := int(n32) // words
	table, err := ctx.SharedU64("ck_partials", ctx.NumTasklets())
	if err != nil {
		return err
	}
	buf, err := ctx.AllocU32(512)
	if err != nil {
		return err
	}
	start, end := ctx.Partition(n)
	var sum uint64
	for off := start; off < end; off += len(buf) {
		w := buf[:min(len(buf), end-off)]
		if err := ctx.ReadU32(int64(off)*4, w); err != nil {
			return err
		}
		for _, v := range w {
			sum += uint64(v)
		}
		ctx.Tick(int64(len(w)) * 4)
	}
	table[ctx.Me()] = sum
	ctx.Barrier()
	if ctx.Me() == 0 {
		var total uint64
		for _, v := range table {
			total += v
		}
		return ctx.WriteU64([]uint64{total}, int64(n)*4)
	}
	return nil
}

// RunChecksum executes the checksum microbenchmark and validates every
// DPU's result against the CPU checksum. It frees the buffers it allocates,
// so a long-running guest can run any number of jobs.
func RunChecksum(env sdk.Env, p ChecksumParams) (err error) {
	if p.DPUs == 0 {
		p.DPUs = 60
	}
	if p.BytesPerDPU == 0 {
		p.BytesPerDPU = 60 << 20
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.BytesPerDPU%8 != 0 {
		return fmt.Errorf("checksum: %d bytes is not 8-byte aligned", p.BytesPerDPU)
	}
	words := p.BytesPerDPU / 4

	set, err := env.AllocSet(p.DPUs)
	if err != nil {
		return err
	}
	defer func() { _ = set.Free() }()
	if err := set.Load("upmem/checksum"); err != nil {
		return err
	}

	file, err := env.AllocBuffer(p.BytesPerDPU)
	if err != nil {
		return err
	}
	defer freeBuffer(env, file, &err)
	// xorshift fill: fast and deterministic.
	state := uint64(p.Seed)*2685821657736338717 + 1442695040888963407
	var want uint64
	for i := 0; i < words; i++ {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		v := uint32(state)
		binary.LittleEndian.PutUint32(file.Data[4*i:], v)
		want += uint64(v)
	}

	tl := env.Timeline()
	err = sdk.Phase(tl, trace.PhaseCPUDPU, func() error {
		if err := prim.SetU32Sym(set, "ck_n", uint32(words)); err != nil {
			return err
		}
		return prim.PushSlices(set, sdk.ToDPU, 0, file, 0, p.BytesPerDPU)
	})
	if err != nil {
		return err
	}

	if err := sdk.Phase(tl, trace.PhaseDPU, set.Launch); err != nil {
		return err
	}

	resBuf, err := env.AllocBuffer(8)
	if err != nil {
		return err
	}
	defer freeBuffer(env, resBuf, &err)
	err = sdk.Phase(tl, trace.PhaseDPUCPU, func() error {
		for d := 0; d < p.DPUs; d++ {
			if err := set.CopyFromMRAM(d, int64(words)*4, resBuf, 8); err != nil {
				return err
			}
			if got := binary.LittleEndian.Uint64(resBuf.Data); got != want {
				return fmt.Errorf("checksum: dpu %d = %#x, want %#x", d, got, want)
			}
		}
		return nil
	})
	return err
}

// freeBuffer frees buf and reports a failure in *err unless it already
// holds one.
func freeBuffer(env sdk.Env, buf hostmem.Buffer, err *error) {
	if ferr := env.FreeBuffer(buf); *err == nil {
		*err = ferr
	}
}
