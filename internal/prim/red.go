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
	buf, err := ctx.AllocU32(512)
	if err != nil {
		return err
	}
	start, end := ctx.Partition(int(n32))
	sum, err := sumWords(ctx, buf, start, end)
	if err != nil {
		return err
	}
	return ctx.WriteU64([]uint64{sum}, int64(resOff)+int64(ctx.Me())*8)
}

// sumWords sums the input words [start, end), which start at MRAM offset
// 0, reading them into buf block by block at four instructions a word: the
// reduction of RED and of both scans' first pass.
func sumWords(ctx *pim.Ctx, buf []uint32, start, end int) (uint64, error) {
	var sum uint64
	for off := start; off < end; off += len(buf) {
		w := buf[:min(len(buf), end-off)]
		if err := ctx.ReadU32(int64(off)*4, w); err != nil {
			return 0, err
		}
		for _, v := range w {
			sum += uint64(v)
		}
		ctx.Tick(int64(len(w)) * 4)
	}
	return sum, nil
}

// redData is RED's prepared dataset: the input and its CPU sum.
type redData struct {
	input []uint32
	sum   uint64
}

func prepareRED(p Params) *redData {
	r := p.Rand()
	d := &redData{input: make([]uint32, p.size(redBaseElems))}
	for i := range d.input {
		d.input[i] = uint32(r.Intn(1 << 20))
		d.sum += uint64(d.input[i])
	}
	return d
}

// RunRED executes the reduction and checks the global sum.
func RunRED(env sdk.Env, p Params) error {
	p = p.withDefaults()
	n := p.size(redBaseElems)
	if n%p.DPUs != 0 {
		return fmt.Errorf("red: %d elements not divisible by %d DPUs", n, p.DPUs)
	}
	per := n / p.DPUs
	perBytes := per * 4
	resultOff := PadTo(perBytes, 8)
	in := Prepared("RED", p, prepareRED)

	set, err := env.AllocSet(p.DPUs)
	if err != nil {
		return err
	}
	defer func() { _ = set.Free() }()
	if err := set.Load("prim/red"); err != nil {
		return err
	}

	buf, err := AllocU32(env, in.input)
	if err != nil {
		return err
	}
	resBuf, err := env.AllocBuffer(redResultBytes)
	if err != nil {
		return err
	}

	tl := env.Timeline()
	err = sdk.Phase(tl, trace.PhaseCPUDPU, func() error {
		if err := SetU32Sym(set, "red_n", uint32(per)); err != nil {
			return err
		}
		if err := SetU32Sym(set, "red_result_off", uint32(resultOff)); err != nil {
			return err
		}
		return PushSlices(set, sdk.ToDPU, 0, buf, perBytes, perBytes)
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

	if got != in.sum {
		return fmt.Errorf("red: sum = %d, want %d", got, in.sum)
	}
	return nil
}
