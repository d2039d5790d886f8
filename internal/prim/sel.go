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
	per := padTo((n+nt-1)/nt, 2)
	start := ctx.Me() * per
	end := start + per
	if end > n {
		end = n
	}
	if start > n {
		start = n
	}

	table, err := ctx.Shared("sel_counts", 4*nt)
	if err != nil {
		return err
	}
	buf, err := ctx.Alloc(1024)
	if err != nil {
		return err
	}
	prev, err := ctx.Alloc(8)
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
		if err := ctx.MRAMRead(int64(start-2)*4, prev); err != nil {
			return err
		}
		prevV = u32At(prev, 1)
		first = false
	}
	bPrevV, bFirst := prevV, first
	for off := start; off < end; off += 256 {
		cnt := 256
		if end-off < cnt {
			cnt = end - off
		}
		if err := ctx.MRAMRead(int64(off)*4, buf[:cnt*4]); err != nil {
			return err
		}
		for i := 0; i < cnt; i++ {
			v := u32At(buf, i)
			if keep(v, prevV, first) {
				count++
			}
			prevV = v
			first = false
		}
		ctx.Tick(int64(cnt) * 5)
	}
	putU32At(table, ctx.Me(), count)
	ctx.Barrier()

	// Pass 2: compact at the exclusive prefix offset. Output
	// positions are written one by one through an aligned 8-byte
	// staging slot, the same grain a real DPU uses.
	var base uint32
	for t := 0; t < ctx.Me(); t++ {
		base += u32At(table, t)
	}
	ctx.Tick(int64(ctx.Me()) * 3)

	out, err := ctx.Alloc(1024)
	if err != nil {
		return err
	}
	outPos := int(base)
	outFill := 0
	span, err := ctx.Alloc(1024 + 8)
	if err != nil {
		return err
	}
	flush := func() error {
		if outFill == 0 {
			return nil
		}
		// The compacted region starts at a 4-byte position, so the
		// write is a read-modify-write over the covering aligned
		// 8-byte grains; the DPU mutex protects the boundary words
		// two tasklets may share.
		ctx.Lock()
		defer ctx.Unlock()
		writeStart := int64(outPos-outFill) * 4
		writeEnd := int64(outPos) * 4
		alignedStart := writeStart &^ 7
		alignedEnd := (writeEnd + 7) &^ 7
		consumed := 0
		for pos := alignedStart; pos < alignedEnd; pos += 1024 {
			cnt := alignedEnd - pos
			if cnt > 1024 {
				cnt = 1024
			}
			if err := ctx.MRAMRead(nBytes+pos, span[:cnt]); err != nil {
				return err
			}
			lo := writeStart - pos
			if lo < 0 {
				lo = 0
			}
			hi := cnt
			if writeEnd-pos < hi {
				hi = writeEnd - pos
			}
			for b := lo; b < hi; b += 4 {
				putU32At(span, int(b)/4, u32At(out, consumed))
				consumed++
			}
			if err := ctx.MRAMWrite(span[:cnt], nBytes+pos); err != nil {
				return err
			}
		}
		outFill = 0
		return nil
	}
	prevV, first = bPrevV, bFirst
	for off := start; off < end; off += 256 {
		cnt := 256
		if end-off < cnt {
			cnt = end - off
		}
		if err := ctx.MRAMRead(int64(off)*4, buf[:cnt*4]); err != nil {
			return err
		}
		for i := 0; i < cnt; i++ {
			v := u32At(buf, i)
			if keep(v, prevV, first) {
				putU32At(out, outFill, v)
				outFill++
				outPos++
				if outFill == 256 {
					if err := flush(); err != nil {
						return err
					}
				}
			}
			prevV = v
			first = false
		}
		ctx.Tick(int64(cnt) * 7)
	}
	if err := flush(); err != nil {
		return err
	}
	ctx.Barrier()

	if ctx.Me() == nt-1 {
		var total uint32
		for t := 0; t < nt; t++ {
			total += u32At(table, t)
		}
		return ctx.SetHostU32("sel_count", total)
	}
	return nil
}

// RunSEL executes Select (keep even values) with serial retrieval.
func RunSEL(env sdk.Env, p Params) error {
	return runCompact(env, p, "prim/sel", false)
}

// RunUNI executes Unique (drop consecutive duplicates) with serial
// retrieval.
func RunUNI(env sdk.Env, p Params) error {
	return runCompact(env, p, "prim/uni", true)
}

func runCompact(env sdk.Env, p Params, kernel string, unique bool) error {
	p = p.withDefaults()
	r := p.Rand()
	n := p.size(selBaseElems)
	if n%p.DPUs != 0 {
		return fmt.Errorf("sel: %d elements not divisible by %d DPUs", n, p.DPUs)
	}
	per := n / p.DPUs
	perBytes := per * 4

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

	set, err := env.AllocSet(p.DPUs)
	if err != nil {
		return err
	}
	defer func() { _ = set.Free() }()
	if err := set.Load(kernel); err != nil {
		return err
	}

	buf, err := allocU32(env, input)
	if err != nil {
		return err
	}
	outBuf, err := allocBytes(env, perBytes)
	if err != nil {
		return err
	}

	tl := env.Timeline()
	err = sdk.Phase(tl, trace.PhaseCPUDPU, func() error {
		if err := setU32Sym(set, "sel_n", uint32(per)); err != nil {
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
			nBytesOut := padTo(int(count)*4, 8)
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
