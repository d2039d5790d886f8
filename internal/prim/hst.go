package prim

import (
	"fmt"

	"repro/internal/pim"
	"repro/internal/sdk"
	"repro/internal/trace"
)

// HST-S and HST-L: image histogram, short and long variants. HST-S keeps a
// private per-tasklet histogram in WRAM and merges at the end (viable only
// for few bins); HST-L shares one WRAM histogram across tasklets behind the
// DPU mutex. Both write the DPU histogram to MRAM; the host retrieves it
// with one small read-from-rank per DPU (the DPU-CPU step the paper calls
// out for triggering the prefetch cache).

const (
	hstBaseElems = 7_680_000
	hstBinsShort = 64
	hstBinsLong  = 1024
	// hstDepth is the input pixel depth: values are in [0, 1<<hstDepth).
	hstDepth = 12
)

func hstKernel(name string, bins int, private bool) *pim.Kernel {
	return &pim.Kernel{
		Name:      name,
		Tasklets:  DefaultTasklets,
		CodeBytes: 7 << 10,
		Symbols:   []pim.Symbol{{Name: "hst_n", Bytes: 4}},
		Run:       func(ctx *pim.Ctx) error { return runHSTKernel(ctx, bins, private) },
	}
}

func runHSTKernel(ctx *pim.Ctx, bins int, private bool) error {
	if ctx.Me() == 0 {
		ctx.ResetHeap()
	}
	ctx.Barrier()
	n32, err := ctx.HostU32("hst_n")
	if err != nil {
		return err
	}
	n := int(n32)
	nBytes := int64(n) * 4
	nt := ctx.NumTasklets()
	shift := uint(hstDepth) - uint(log2(bins))

	var local []byte
	if private {
		if local, err = ctx.Alloc(4 * bins); err != nil {
			return err
		}
	} else {
		if local, err = ctx.Shared("hst_hist", 4*bins); err != nil {
			return err
		}
	}
	buf, err := ctx.Alloc(1024)
	if err != nil {
		return err
	}
	per := padTo((n+nt-1)/nt, 2)
	start := ctx.Me() * per
	end := start + per
	if end > n {
		end = n
	}
	if start > n {
		start = n
	}
	for off := start; off < end; off += 256 {
		cnt := 256
		if end-off < cnt {
			cnt = end - off
		}
		if err := ctx.MRAMRead(int64(off)*4, buf[:cnt*4]); err != nil {
			return err
		}
		for i := 0; i < cnt; i++ {
			bin := int(u32At(buf, i) >> shift)
			if private {
				putU32At(local, bin, u32At(local, bin)+1)
			} else {
				ctx.Lock()
				putU32At(local, bin, u32At(local, bin)+1)
				ctx.Unlock()
			}
		}
		ticks := int64(cnt) * 6
		if !private {
			ticks += int64(cnt) * 4 // mutex acquire/release
		}
		ctx.Tick(ticks)
	}
	ctx.Barrier()

	if private {
		// Merge private histograms into the shared final one.
		final, err := ctx.Shared("hst_final", 4*bins)
		if err != nil {
			return err
		}
		ctx.Lock()
		for b := 0; b < bins; b++ {
			putU32At(final, b, u32At(final, b)+u32At(local, b))
		}
		ctx.Unlock()
		ctx.Tick(int64(bins) * 4)
		ctx.Barrier()
		local = final
	}
	// Tasklet 0 stores the DPU histogram after MRAM-aligned chunks.
	if ctx.Me() == 0 {
		for off := 0; off < 4*bins; off += 2048 {
			cnt := 4*bins - off
			if cnt > 2048 {
				cnt = 2048
			}
			if err := ctx.MRAMWrite(local[off:off+cnt], nBytes+int64(off)); err != nil {
				return err
			}
		}
	}
	return nil
}

// log2 of a power of two.
func log2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// RunHSTS executes the short histogram.
func RunHSTS(env sdk.Env, p Params) error {
	return runHST(env, p, "prim/hst-s", hstBinsShort)
}

// RunHSTL executes the long histogram.
func RunHSTL(env sdk.Env, p Params) error {
	return runHST(env, p, "prim/hst-l", hstBinsLong)
}

func runHST(env sdk.Env, p Params, kernel string, bins int) error {
	p = p.withDefaults()
	r := p.Rand()
	n := p.size(hstBaseElems)
	if n%p.DPUs != 0 {
		return fmt.Errorf("hst: %d elements not divisible by %d DPUs", n, p.DPUs)
	}
	per := n / p.DPUs
	perBytes := per * 4

	// Synthetic image: pixel values follow a truncated quadratic ramp so
	// bins are non-uniform (as in a natural image).
	input := make([]uint32, n)
	want := make([]uint64, bins)
	shift := uint(hstDepth) - uint(log2(bins))
	for i := range input {
		v := uint32(r.Intn(1 << hstDepth))
		w := uint32(r.Intn(1 << hstDepth))
		if w < v {
			v = w
		}
		input[i] = v
		want[v>>shift]++
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
	histBuf, err := allocBytes(env, 4*bins)
	if err != nil {
		return err
	}

	tl := env.Timeline()
	err = sdk.Phase(tl, trace.PhaseCPUDPU, func() error {
		if err := setU32Sym(set, "hst_n", uint32(per)); err != nil {
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

	got := make([]uint64, bins)
	err = sdk.Phase(tl, trace.PhaseDPUCPU, func() error {
		// One small read-from-rank per DPU retrieves its histogram.
		for d := 0; d < p.DPUs; d++ {
			if err := set.CopyFromMRAM(d, int64(perBytes), histBuf, 4*bins); err != nil {
				return err
			}
			for b := 0; b < bins; b++ {
				got[b] += uint64(u32At(histBuf.Data, b))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	for b := range want {
		if got[b] != want[b] {
			return fmt.Errorf("hst: bin %d = %d, want %d", b, got[b], want[b])
		}
	}
	return nil
}
