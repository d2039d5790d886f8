package prim

import (
	"fmt"

	"repro/internal/pim"
	"repro/internal/sdk"
	"repro/internal/trace"
)

// VA: vector addition. The canonical transfer-bound PrIM workload: bulk
// parallel CPU-DPU pushes of A and B, a light add kernel, and a bulk DPU-CPU
// pull of C.

// vaBaseElems is the Scale=1 total element count: divisible by 60 and 480
// for strong scaling, ~15 MB of input per operand side at Scale=1... per
// paper the dataset fills one rank; we scale down (DESIGN.md).
const vaBaseElems = 7_680_000

// vaKernel adds the DPU's A and B chunks into C. MRAM layout: A at 0, B at
// nBytes, C at 2*nBytes, where va_n is the per-DPU element count.
func vaKernel() *pim.Kernel {
	return &pim.Kernel{
		Name:      "prim/va",
		Tasklets:  DefaultTasklets,
		CodeBytes: 6 << 10,
		Symbols:   []pim.Symbol{{Name: "va_n", Bytes: 4}},
		Run:       runVAKernel,
	}
}

func runVAKernel(ctx *pim.Ctx) error {
	if ctx.Me() == 0 {
		ctx.ResetHeap()
	}
	ctx.Barrier()
	n32, err := ctx.HostU32("va_n")
	if err != nil {
		return err
	}
	n := int(n32)
	nBytes := int64(n) * 4
	bufA, err := ctx.AllocU32(256)
	if err != nil {
		return err
	}
	bufB, err := ctx.AllocU32(256)
	if err != nil {
		return err
	}
	start, end := ctx.Partition(n)
	for off := start; off < end; off += len(bufA) {
		a := bufA[:min(len(bufA), end-off)]
		b := bufB[:len(a)]
		if err := ctx.ReadU32(int64(off)*4, a); err != nil {
			return err
		}
		if err := ctx.ReadU32(nBytes+int64(off)*4, b); err != nil {
			return err
		}
		for i := range a {
			a[i] += b[i]
		}
		ctx.Tick(int64(len(a)) * 6)
		if err := ctx.WriteU32(a, 2*nBytes+int64(off)*4); err != nil {
			return err
		}
	}
	return nil
}

// vaData is VA's prepared dataset: the two operands. C = A + B is checked
// in the run.
type vaData struct{ a, b []uint32 }

func prepareVA(p Params) *vaData {
	r := p.Rand()
	n := p.size(vaBaseElems)
	d := &vaData{a: make([]uint32, n), b: make([]uint32, n)}
	for i := range d.a {
		d.a[i] = uint32(r.Intn(1 << 30))
		d.b[i] = uint32(r.Intn(1 << 30))
	}
	return d
}

// RunVA executes vector addition and checks C = A + B.
func RunVA(env sdk.Env, p Params) error {
	p = p.withDefaults()
	n := p.size(vaBaseElems)
	if n%p.DPUs != 0 {
		return fmt.Errorf("va: %d elements not divisible by %d DPUs", n, p.DPUs)
	}
	per := n / p.DPUs
	if per%2 != 0 {
		return fmt.Errorf("va: per-DPU chunk %d not 8-byte aligned", per)
	}
	perBytes := per * 4
	in := Prepared("VA", p, prepareVA)
	a, b := in.a, in.b

	set, err := env.AllocSet(p.DPUs)
	if err != nil {
		return err
	}
	defer func() { _ = set.Free() }()
	if err := set.Load("prim/va"); err != nil {
		return err
	}

	bufA, err := AllocU32(env, a)
	if err != nil {
		return err
	}
	bufB, err := AllocU32(env, b)
	if err != nil {
		return err
	}
	bufC, err := env.AllocBuffer(4 * n)
	if err != nil {
		return err
	}

	tl := env.Timeline()
	err = sdk.Phase(tl, trace.PhaseCPUDPU, func() error {
		if err := SetU32Sym(set, "va_n", uint32(per)); err != nil {
			return err
		}
		if err := PushSlices(set, sdk.ToDPU, 0, bufA, perBytes, perBytes); err != nil {
			return err
		}
		return PushSlices(set, sdk.ToDPU, int64(perBytes), bufB, perBytes, perBytes)
	})
	if err != nil {
		return err
	}

	if err := sdk.Phase(tl, trace.PhaseDPU, set.Launch); err != nil {
		return err
	}

	err = sdk.Phase(tl, trace.PhaseDPUCPU, func() error {
		return PushSlices(set, sdk.FromDPU, 2*int64(perBytes), bufC, perBytes, perBytes)
	})
	if err != nil {
		return err
	}

	for i := 0; i < n; i++ {
		if got, want := u32At(bufC.Data, i), a[i]+b[i]; got != want {
			return fmt.Errorf("va: C[%d] = %d, want %d", i, got, want)
		}
	}
	return nil
}
