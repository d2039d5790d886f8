package prim

import (
	"fmt"

	"repro/internal/pim"
	"repro/internal/sdk"
	"repro/internal/trace"
)

// RED: parallel reduction (sum). Each DPU reduces its chunk and stores
// per-tasklet partials in a small MRAM result region; the host's Inter-DPU
// step reads 256 bytes from every DPU — the small read-from-rank the paper
// identifies as triggering the prefetch-cache anomaly (33x/145x overhead in
// that step, Section 5.2).

const (
	redBaseElems     = 7_680_000
	redResultBytes   = 256
	redPartialsCount = DefaultTasklets
)

// redKernel sums the DPU chunk; tasklet t writes its partial (u64) at
// resultOff + 8*t. Layout: input at 0 (red_n elements), result region at
// red_result_off.
func redKernel() *pim.Kernel {
	return &pim.Kernel{
		Name:      "prim/red",
		Tasklets:  DefaultTasklets,
		CodeBytes: 5 << 10,
		Symbols: []pim.Symbol{
			{Name: "red_n", Bytes: 4},
			{Name: "red_result_off", Bytes: 4},
		},
		Run: runREDKernel,
	}
}

func runREDKernel(ctx *pim.Ctx) error {
	if ctx.Me() == 0 {
		ctx.ResetHeap()
	}
	ctx.Barrier()
	n32, err := ctx.HostU32("red_n")
	if err != nil {
		return err
	}
	resOff, err := ctx.HostU32("red_result_off")
	if err != nil {
		return err
	}
	n := int(n32)
	per := padTo((n+ctx.NumTasklets()-1)/ctx.NumTasklets(), 2)
	buf, err := ctx.Alloc(2048)
	if err != nil {
		return err
	}
	start := ctx.Me() * per
	end := start + per
	if end > n {
		end = n
	}
	var sum uint64
	for off := start; off < end; off += 512 {
		cnt := 512
		if end-off < cnt {
			cnt = end - off
		}
		if err := ctx.MRAMRead(int64(off)*4, buf[:cnt*4]); err != nil {
			return err
		}
		for i := 0; i < cnt; i++ {
			sum += uint64(u32At(buf, i))
		}
		ctx.Tick(int64(cnt) * 4)
	}
	var out [8]byte
	putU64At(out[:], 0, sum)
	return ctx.MRAMWrite(out[:], int64(resOff)+int64(ctx.Me())*8)
}

// RunRED executes the reduction and checks the global sum.
func RunRED(env sdk.Env, p Params) error {
	p = p.withDefaults()
	r := p.Rand()
	n := p.size(redBaseElems)
	if n%p.DPUs != 0 {
		return fmt.Errorf("red: %d elements not divisible by %d DPUs", n, p.DPUs)
	}
	per := n / p.DPUs
	perBytes := per * 4
	resultOff := padTo(perBytes, 8)

	input := make([]uint32, n)
	var want uint64
	for i := range input {
		input[i] = uint32(r.Intn(1 << 20))
		want += uint64(input[i])
	}

	set, err := env.AllocSet(p.DPUs)
	if err != nil {
		return err
	}
	defer func() { _ = set.Free() }()
	if err := set.Load("prim/red"); err != nil {
		return err
	}

	buf, err := allocU32(env, input)
	if err != nil {
		return err
	}
	resBuf, err := allocBytes(env, redResultBytes)
	if err != nil {
		return err
	}

	tl := env.Timeline()
	err = sdk.Phase(tl, trace.PhaseCPUDPU, func() error {
		if err := setU32Sym(set, "red_n", uint32(per)); err != nil {
			return err
		}
		if err := setU32Sym(set, "red_result_off", uint32(resultOff)); err != nil {
			return err
		}
		for d := 0; d < p.DPUs; d++ {
			if err := set.PrepareXfer(d, subBuf(buf, d*perBytes, perBytes)); err != nil {
				return err
			}
		}
		return set.PushXfer(sdk.ToDPU, 0, perBytes)
	})
	if err != nil {
		return err
	}

	if err := sdk.Phase(tl, trace.PhaseDPU, set.Launch); err != nil {
		return err
	}

	var got uint64
	err = sdk.Phase(tl, trace.PhaseInterDPU, func() error {
		// The result retrieval is a 256-byte read-from-rank per DPU: the
		// access pattern behind Takeaway 1.
		for d := 0; d < p.DPUs; d++ {
			if err := set.CopyFromMRAM(d, int64(resultOff), resBuf, redResultBytes); err != nil {
				return err
			}
			for t := 0; t < redPartialsCount; t++ {
				got += u64At(resBuf.Data, t)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	if got != want {
		return fmt.Errorf("red: sum = %d, want %d", got, want)
	}
	return nil
}
