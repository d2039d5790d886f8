package prim

import (
	"fmt"

	"repro/internal/pim"
	"repro/internal/sdk"
	"repro/internal/trace"
)

// SEL and UNI: the two PrIM database primitives with *serial* DPU-CPU
// retrieval: each DPU's compacted output has a different length, so the host
// reads them one DPU at a time — the pattern the paper flags for scaling
// poorly with the DPU count (Section 5.2, second observation).

const selBaseElems = 3_840_000

// selKernel compacts the chunk, keeping even values. Two passes: per-tasklet
// counts into a shared table, then ordered compaction at the table's prefix
// offsets. Output at nBytes, kept count in sel_count. UNI uses the same
// skeleton with a "differs from predecessor" predicate.
func compactKernel(name string, unique bool) *pim.Kernel {
	return &pim.Kernel{
		Name:      name,
		Tasklets:  DefaultTasklets,
		CodeBytes: 9 << 10,
		Symbols: []pim.Symbol{
			{Name: "sel_n", Bytes: 4},
			{Name: "sel_count", Bytes: 4},
		},
		Run: func(ctx *pim.Ctx) error { return runCompactKernel(ctx, unique) },
	}
}

func runCompactKernel(ctx *pim.Ctx, unique bool) error {
	if ctx.Me() == 0 {
		ctx.ResetHeap()
	}
	ctx.Barrier()
	n32, err := ctx.HostU32("sel_n")
	if err != nil {
		return err
	}
	n := int(n32)
	nBytes := int64(n) * 4
	nt := ctx.NumTasklets()
	start, end := ctx.Partition(n)

	table, err := ctx.SharedU32("sel_counts", nt)
	if err != nil {
		return err
	}
	buf, err := ctx.AllocU32(256)
	if err != nil {
		return err
	}
	prev, err := ctx.AllocU32(2)
	if err != nil {
		return err
	}

	keep := func(v uint32, prevV uint32, first bool) bool {
		if unique {
			return first || v != prevV
		}
		return v%2 == 0
	}

	// Pass 1: count kept elements.
	var count uint32
	var prevV uint32
	first := true
	if unique && start > 0 && start < n {
		// Peek at the predecessor for the boundary comparison.
		if err := ctx.ReadU32(int64(start-2)*4, prev); err != nil {
			return err
		}
		prevV = prev[1]
		first = false
	}
	bPrevV, bFirst := prevV, first
	for off := start; off < end; off += len(buf) {
		w := buf[:min(len(buf), end-off)]
		if err := ctx.ReadU32(int64(off)*4, w); err != nil {
			return err
		}
		for _, v := range w {
			if keep(v, prevV, first) {
				count++
			}
			prevV = v
			first = false
		}
		ctx.Tick(int64(len(w)) * 5)
	}
	table[ctx.Me()] = count
	ctx.Barrier()

	// Pass 2: compact at the exclusive prefix offset. Output
	// positions are written one by one through an aligned 8-byte
	// staging slot, the same grain a real DPU uses.
	var base uint32
	for _, c := range table[:ctx.Me()] {
		base += c
	}
	ctx.Tick(int64(ctx.Me()) * 3)

	out, err := ctx.AllocU32(256)
	if err != nil {
		return err
	}
	outPos := int(base)
	outFill := 0
	span, err := ctx.AllocU32(256 + 2)
	if err != nil {
		return err
	}
	flush := func() error {
		if outFill == 0 {
			return nil
		}
		// The compacted region starts at a 4-byte position, so the
		// write is a read-modify-write over the covering aligned
		// 8-byte grains, in 1 KB pieces; the DPU mutex protects the
		// boundary words two tasklets may share.
		ctx.Lock()
		defer ctx.Unlock()
		lo, hi := outPos-outFill, outPos
		consumed := 0
		for pos := lo &^ 1; pos < (hi+1)&^1; pos += 256 {
			w := span[:min(256, (hi+1)&^1-pos)]
			if err := ctx.ReadU32(nBytes+int64(pos)*4, w); err != nil {
				return err
			}
			consumed += copy(w[max(lo-pos, 0):min(hi-pos, len(w))], out[consumed:outFill])
			if err := ctx.WriteU32(w, nBytes+int64(pos)*4); err != nil {
				return err
			}
		}
		outFill = 0
		return nil
	}
	prevV, first = bPrevV, bFirst
	for off := start; off < end; off += len(buf) {
		w := buf[:min(len(buf), end-off)]
		if err := ctx.ReadU32(int64(off)*4, w); err != nil {
			return err
		}
		for _, v := range w {
			if keep(v, prevV, first) {
				out[outFill] = v
				outFill++
				outPos++
				if outFill == len(out) {
					if err := flush(); err != nil {
						return err
					}
				}
			}
			prevV = v
			first = false
		}
		ctx.Tick(int64(len(w)) * 7)
	}
	if err := flush(); err != nil {
		return err
	}
	ctx.Barrier()

	if ctx.Me() == nt-1 {
		var total uint32
		for _, c := range table {
			total += c
		}
		return ctx.SetHostU32("sel_count", total)
	}
	return nil
}

// RunSEL executes Select (keep even values) with serial retrieval.
func RunSEL(env sdk.Env, p Params) error {
	return runCompact(env, p, "SEL", "prim/sel", false)
}

// RunUNI executes Unique (drop consecutive duplicates) with serial
// retrieval.
func RunUNI(env sdk.Env, p Params) error {
	return runCompact(env, p, "UNI", "prim/uni", true)
}

// compactData is SEL's or UNI's prepared dataset: the input and the values
// the CPU reference keeps.
type compactData struct{ input, want []uint32 }

func prepareCompact(p Params, unique bool) *compactData {
	r := p.Rand()
	n := p.size(selBaseElems)
	per := n / p.DPUs
	input := make([]uint32, n)
	if unique {
		// Runs of duplicates so UNI has work to do.
		v := uint32(r.Intn(1 << 20))
		for i := range input {
			if r.Intn(3) == 0 {
				v = uint32(r.Intn(1 << 20))
			}
			input[i] = v
		}
	} else {
		for i := range input {
			input[i] = uint32(r.Intn(1 << 20))
		}
	}

	// CPU reference. UNI's boundary semantics mirror the kernel: inside a
	// chunk, tasklets peek at the predecessor element, but the first
	// element of each DPU chunk is kept unconditionally (DPUs cannot see
	// each other's data — an UPMEM hardware limitation the host tolerates).
	var want []uint32
	for i, v := range input {
		switch {
		case !unique:
			if v%2 == 0 {
				want = append(want, v)
			}
		case i%per == 0 || v != input[i-1]:
			want = append(want, v)
		}
	}
	return &compactData{input: input, want: want}
}

func runCompact(env sdk.Env, p Params, app, kernel string, unique bool) error {
	p = p.withDefaults()
	n := p.size(selBaseElems)
	if n%p.DPUs != 0 {
		return fmt.Errorf("sel: %d elements not divisible by %d DPUs", n, p.DPUs)
	}
	per := n / p.DPUs
	perBytes := per * 4
	in := Prepared(app, p, func(p Params) *compactData { return prepareCompact(p, unique) })

	set, err := env.AllocSet(p.DPUs)
	if err != nil {
		return err
	}
	defer func() { _ = set.Free() }()
	if err := set.Load(kernel); err != nil {
		return err
	}

	buf, err := AllocU32(env, in.input)
	if err != nil {
		return err
	}
	outBuf, err := env.AllocBuffer(perBytes)
	if err != nil {
		return err
	}

	tl := env.Timeline()
	err = sdk.Phase(tl, trace.PhaseCPUDPU, func() error {
		if err := SetU32Sym(set, "sel_n", uint32(per)); err != nil {
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

	var got []uint32
	err = sdk.Phase(tl, trace.PhaseDPUCPU, func() error {
		// Serial retrieval: counts differ per DPU, so PrIM copies one DPU
		// at a time — transfer time grows with the DPU count.
		for d := 0; d < p.DPUs; d++ {
			count, err := getU32Sym(set, d, "sel_count")
			if err != nil {
				return err
			}
			if count == 0 {
				continue
			}
			nBytesOut := PadTo(int(count)*4, 8)
			if err := set.CopyFromMRAM(d, int64(perBytes), outBuf, nBytesOut); err != nil {
				return err
			}
			for i := 0; i < int(count); i++ {
				got = append(got, u32At(outBuf.Data, i))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	want := in.want
	if len(got) != len(want) {
		return fmt.Errorf("sel: kept %d values, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("sel: out[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}
