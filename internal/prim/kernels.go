package prim

import "repro/internal/pim"

// Kernels returns every DPU binary of the suite. Each kernel's Run is a
// named function, or a one-line closure that passes its constructor's
// arguments to one: Go inlines every constructor here, and compiles a
// closure literal cloned that way without inlining the calls in it
// (Ctx.Me, Ctx.Tick, Ctx.Partition). CI's "Kernel helpers are inlined"
// step checks the machine code.
func Kernels() []*pim.Kernel {
	return []*pim.Kernel{
		vaKernel(),
		gemvKernel(),
		spmvKernel(),
		compactKernel("prim/sel", false),
		compactKernel("prim/uni", true),
		bsKernel(),
		tsKernel(),
		bfsKernel(),
		mlpKernel(),
		nwKernel(),
		hstKernel("prim/hst-s", hstBinsShort, true),
		hstKernel("prim/hst-l", hstBinsLong, false),
		redKernel(),
		scanScanKernel(),
		scanAddKernel(),
		scanReduceKernel(),
		scanRSSScanKernel(),
		trnsKernel(),
	}
}

// Register installs all PrIM DPU binaries into a registry (the analogue of
// building the suite's DPU-side binaries).
func Register(reg *pim.Registry) error {
	for _, k := range Kernels() {
		if err := reg.Register(k); err != nil {
			return err
		}
	}
	return nil
}
