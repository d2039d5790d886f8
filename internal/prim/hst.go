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
	shift := uint(hstDepth) - uint(log2(bins))

	var local []uint32
	if private {
		if local, err = ctx.AllocU32(bins); err != nil {
			return err
		}
	} else {
		if local, err = ctx.SharedU32("hst_hist", bins); err != nil {
			return err
		}
	}
	buf, err := ctx.AllocU32(256)
	if err != nil {
		return err
	}
	start, end := ctx.Partition(n)
	for off := start; off < end; off += len(buf) {
		w := buf[:min(len(buf), end-off)]
		if err := ctx.ReadU32(int64(off)*4, w); err != nil {
			return err
		}
		for _, v := range w {
			if private {
				local[v>>shift]++
			} else {
				ctx.Lock()
				local[v>>shift]++
				ctx.Unlock()
			}
		}
		ticks := int64(len(w)) * 6
		if !private {
			ticks += int64(len(w)) * 4 // mutex acquire/release
		}
		ctx.Tick(ticks)
	}
	ctx.Barrier()

	if private {
		// Merge private histograms into the shared final one.
		final, err := ctx.SharedU32("hst_final", bins)
		if err != nil {
			return err
		}
		ctx.Lock()
		for b, c := range local {
			final[b] += c
		}
		ctx.Unlock()
		ctx.Tick(int64(bins) * 4)
		ctx.Barrier()
		local = final
	}
	// Tasklet 0 stores the DPU histogram after the input.
	if ctx.Me() == 0 {
		return ctx.WriteU32(local, int64(n)*4)
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
	return runHST(env, p, "HST-S", "prim/hst-s", hstBinsShort)
}

// RunHSTL executes the long histogram.
func RunHSTL(env sdk.Env, p Params) error {
	return runHST(env, p, "HST-L", "prim/hst-l", hstBinsLong)
}

// hstData is HST-S's or HST-L's prepared dataset: the image and its CPU
// histogram.
type hstData struct {
	input []uint32
	want  []uint64
}

func prepareHST(p Params, bins int) *hstData {
	r := p.Rand()
	d := &hstData{input: make([]uint32, p.size(hstBaseElems)), want: make([]uint64, bins)}
	// Synthetic image: pixel values follow a truncated quadratic ramp so
	// bins are non-uniform (as in a natural image).
	shift := uint(hstDepth) - uint(log2(bins))
	for i := range d.input {
		v := uint32(r.Intn(1 << hstDepth))
		w := uint32(r.Intn(1 << hstDepth))
		if w < v {
			v = w
		}
		d.input[i] = v
		d.want[v>>shift]++
	}
	return d
}

func runHST(env sdk.Env, p Params, app, kernel string, bins int) error {
	p = p.withDefaults()
	n := p.size(hstBaseElems)
	if n%p.DPUs != 0 {
		return fmt.Errorf("hst: %d elements not divisible by %d DPUs", n, p.DPUs)
	}
	per := n / p.DPUs
	perBytes := per * 4
	in := Prepared(app, p, func(p Params) *hstData { return prepareHST(p, bins) })

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
	histBuf, err := env.AllocBuffer(4 * bins)
	if err != nil {
		return err
	}

	tl := env.Timeline()
	err = sdk.Phase(tl, trace.PhaseCPUDPU, func() error {
		if err := SetU32Sym(set, "hst_n", uint32(per)); err != nil {
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

	for b, want := range in.want {
		if got[b] != want {
			return fmt.Errorf("hst: bin %d = %d, want %d", b, got[b], want)
		}
	}
	return nil
}
