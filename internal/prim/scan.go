package prim

import (
	"fmt"

	"repro/internal/pim"
	"repro/internal/sdk"
	"repro/internal/trace"
)

// SCAN-SSA and SCAN-RSS: the two PrIM prefix-sum strategies.
//
// SCAN-SSA (scan-scan-add): kernel 1 scans each DPU chunk locally and
// exposes the chunk total; the host's Inter-DPU step gathers the totals
// (small reads), prefix-sums them, and pushes each DPU's base offset back
// (small writes); kernel 2 adds the base to every element.
//
// SCAN-RSS (reduce-scan-scan): kernel 1 only reduces; the host scans the
// totals; kernel 2 performs the local scan with the base folded in. RSS
// moves less data in the Inter-DPU step but launches a heavier second
// kernel.

const scanBaseElems = 3_840_000

// scanLayout: input at 0 (scan_n u32 elements), output at nBytes, chunk
// total (u64) at 2*nBytes, per-tasklet partial table in shared WRAM.

func scanScanKernel() *pim.Kernel {
	return &pim.Kernel{
		Name:      "prim/scan-ssa-scan",
		Tasklets:  DefaultTasklets,
		CodeBytes: 8 << 10,
		Symbols:   []pim.Symbol{{Name: "scan_n", Bytes: 4}},
		Run:       runLocalScan,
	}
}

// runLocalScan computes the inclusive scan of the chunk into the output
// region and writes the chunk total. Three steps: per-tasklet block sums
// into a shared table, cross-tasklet exclusive prefix of that table, then a
// rescan of each block with its base.
func runLocalScan(ctx *pim.Ctx) error {
	if ctx.Me() == 0 {
		ctx.ResetHeap()
	}
	ctx.Barrier()
	n32, err := ctx.HostU32("scan_n")
	if err != nil {
		return err
	}
	n := int(n32)
	nBytes := int64(n) * 4
	nt := ctx.NumTasklets()
	per := padTo((n+nt-1)/nt, 2)
	table, err := ctx.Shared("scan_partials", 8*nt)
	if err != nil {
		return err
	}
	buf, err := ctx.Alloc(1024)
	if err != nil {
		return err
	}
	start := ctx.Me() * per
	end := start + per
	if end > n {
		end = n
	}
	if start > n {
		start = n
	}

	// Step 1: block sum.
	var sum uint64
	for off := start; off < end; off += 256 {
		cnt := 256
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
	putU64At(table, ctx.Me(), sum)
	ctx.Barrier()

	// Step 2: exclusive prefix of the partial table (each tasklet derives
	// its own base; cheap, nt is tiny).
	var base uint64
	for t := 0; t < ctx.Me(); t++ {
		base += u64At(table, t)
	}
	ctx.Tick(int64(ctx.Me()) * 3)

	// Step 3: rescan with base, writing the inclusive scan to the output.
	running := base
	for off := start; off < end; off += 256 {
		cnt := 256
		if end-off < cnt {
			cnt = end - off
		}
		if err := ctx.MRAMRead(int64(off)*4, buf[:cnt*4]); err != nil {
			return err
		}
		for i := 0; i < cnt; i++ {
			running += uint64(u32At(buf, i))
			putU32At(buf, i, uint32(running))
		}
		ctx.Tick(int64(cnt) * 7)
		if err := ctx.MRAMWrite(buf[:cnt*4], nBytes+int64(off)*4); err != nil {
			return err
		}
	}

	// The last tasklet's final running value is the chunk total.
	if ctx.Me() == nt-1 {
		var out [8]byte
		var total uint64
		for t := 0; t < nt; t++ {
			total += u64At(table, t)
		}
		putU64At(out[:], 0, total)
		return ctx.MRAMWrite(out[:], 2*nBytes)
	}
	return nil
}

// scanAddKernel adds the per-DPU base (scan_base symbol) to every output
// element: the "add" pass of SCAN-SSA.
func scanAddKernel() *pim.Kernel {
	return &pim.Kernel{
		Name:      "prim/scan-ssa-add",
		Tasklets:  DefaultTasklets,
		CodeBytes: 4 << 10,
		Symbols: []pim.Symbol{
			{Name: "scan_n", Bytes: 4},
			{Name: "scan_base", Bytes: 4},
		},
		Run: runScanAddKernel,
	}
}

func runScanAddKernel(ctx *pim.Ctx) error {
	if ctx.Me() == 0 {
		ctx.ResetHeap()
	}
	ctx.Barrier()
	n32, err := ctx.HostU32("scan_n")
	if err != nil {
		return err
	}
	base, err := ctx.HostU32("scan_base")
	if err != nil {
		return err
	}
	if base == 0 {
		return nil
	}
	n := int(n32)
	nBytes := int64(n) * 4
	per := padTo((n+ctx.NumTasklets()-1)/ctx.NumTasklets(), 2)
	buf, err := ctx.Alloc(1024)
	if err != nil {
		return err
	}
	start := ctx.Me() * per
	end := start + per
	if end > n {
		end = n
	}
	for off := start; off < end; off += 256 {
		cnt := 256
		if end-off < cnt {
			cnt = end - off
		}
		if err := ctx.MRAMRead(nBytes+int64(off)*4, buf[:cnt*4]); err != nil {
			return err
		}
		for i := 0; i < cnt; i++ {
			putU32At(buf, i, u32At(buf, i)+base)
		}
		ctx.Tick(int64(cnt) * 5)
		if err := ctx.MRAMWrite(buf[:cnt*4], nBytes+int64(off)*4); err != nil {
			return err
		}
	}
	return nil
}

// scanReduceKernel is SCAN-RSS's first pass: chunk total only.
func scanReduceKernel() *pim.Kernel {
	return &pim.Kernel{
		Name:      "prim/scan-rss-reduce",
		Tasklets:  DefaultTasklets,
		CodeBytes: 4 << 10,
		Symbols:   []pim.Symbol{{Name: "scan_n", Bytes: 4}},
		Run:       runScanReduceKernel,
	}
}

func runScanReduceKernel(ctx *pim.Ctx) error {
	if ctx.Me() == 0 {
		ctx.ResetHeap()
	}
	ctx.Barrier()
	n32, err := ctx.HostU32("scan_n")
	if err != nil {
		return err
	}
	n := int(n32)
	nt := ctx.NumTasklets()
	per := padTo((n+nt-1)/nt, 2)
	table, err := ctx.Shared("scan_partials", 8*nt)
	if err != nil {
		return err
	}
	buf, err := ctx.Alloc(2048)
	if err != nil {
		return err
	}
	start := ctx.Me() * per
	end := start + per
	if end > n {
		end = n
	}
	if start > n {
		start = n
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
	putU64At(table, ctx.Me(), sum)
	ctx.Barrier()
	if ctx.Me() == nt-1 {
		var total uint64
		for t := 0; t < nt; t++ {
			total += u64At(table, t)
		}
		var out [8]byte
		putU64At(out[:], 0, total)
		return ctx.MRAMWrite(out[:], 2*int64(n)*4)
	}
	return nil
}

// scanRSSScanKernel is SCAN-RSS's second pass: local scan with the host-
// provided base added while scanning.
func scanRSSScanKernel() *pim.Kernel {
	return &pim.Kernel{
		Name:      "prim/scan-rss-scan",
		Tasklets:  DefaultTasklets,
		CodeBytes: 8 << 10,
		Symbols: []pim.Symbol{
			{Name: "scan_n", Bytes: 4},
			{Name: "scan_base", Bytes: 4},
		},
		Run: runScanRSSScanKernel,
	}
}

func runScanRSSScanKernel(ctx *pim.Ctx) error {
	if err := runLocalScan(ctx); err != nil {
		return err
	}
	base, err := ctx.HostU32("scan_base")
	if err != nil {
		return err
	}
	if base == 0 {
		return nil
	}
	// Fold the base in during a final add sweep over this
	// tasklet's region.
	n32, err := ctx.HostU32("scan_n")
	if err != nil {
		return err
	}
	n := int(n32)
	nBytes := int64(n) * 4
	per := padTo((n+ctx.NumTasklets()-1)/ctx.NumTasklets(), 2)
	buf, err := ctx.Alloc(1024)
	if err != nil {
		return err
	}
	start := ctx.Me() * per
	end := start + per
	if end > n {
		end = n
	}
	for off := start; off < end; off += 256 {
		cnt := 256
		if end-off < cnt {
			cnt = end - off
		}
		if err := ctx.MRAMRead(nBytes+int64(off)*4, buf[:cnt*4]); err != nil {
			return err
		}
		for i := 0; i < cnt; i++ {
			putU32At(buf, i, u32At(buf, i)+base)
		}
		ctx.Tick(int64(cnt) * 5)
		if err := ctx.MRAMWrite(buf[:cnt*4], nBytes+int64(off)*4); err != nil {
			return err
		}
	}
	return nil
}

// RunSCANSSA executes the scan-scan-add prefix sum.
func RunSCANSSA(env sdk.Env, p Params) error {
	return runScan(env, p, "SCAN-SSA", "prim/scan-ssa-scan", "prim/scan-ssa-add")
}

// RunSCANRSS executes the reduce-scan-scan prefix sum.
func RunSCANRSS(env sdk.Env, p Params) error {
	return runScan(env, p, "SCAN-RSS", "prim/scan-rss-reduce", "prim/scan-rss-scan")
}

// scanData is SCAN-SSA's or SCAN-RSS's prepared dataset: the input. Each
// output element is checked against a running sum in the run.
type scanData struct{ input []uint32 }

func prepareScan(p Params) *scanData {
	r := p.Rand()
	d := &scanData{input: make([]uint32, p.size(scanBaseElems))}
	for i := range d.input {
		d.input[i] = uint32(r.Intn(1 << 16))
	}
	return d
}

func runScan(env sdk.Env, p Params, app, kernel1, kernel2 string) error {
	p = p.withDefaults()
	n := p.size(scanBaseElems)
	if n%p.DPUs != 0 {
		return fmt.Errorf("scan: %d elements not divisible by %d DPUs", n, p.DPUs)
	}
	per := n / p.DPUs
	perBytes := per * 4
	input := prepared(app, p, prepareScan).input

	set, err := env.AllocSet(p.DPUs)
	if err != nil {
		return err
	}
	defer func() { _ = set.Free() }()
	if err := set.Load(kernel1); err != nil {
		return err
	}

	buf, err := allocU32(env, input)
	if err != nil {
		return err
	}
	out, err := allocBytes(env, 4*n)
	if err != nil {
		return err
	}
	sumBuf, err := allocBytes(env, 8)
	if err != nil {
		return err
	}

	tl := env.Timeline()
	err = sdk.Phase(tl, trace.PhaseCPUDPU, func() error {
		if err := setU32Sym(set, "scan_n", uint32(per)); err != nil {
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

	// Inter-DPU: gather chunk totals (one small read-from-rank per DPU),
	// prefix them, and distribute each DPU's base.
	bases := make([]uint32, p.DPUs)
	err = sdk.Phase(tl, trace.PhaseInterDPU, func() error {
		var running uint64
		for d := 0; d < p.DPUs; d++ {
			bases[d] = uint32(running)
			if err := set.CopyFromMRAM(d, 2*int64(perBytes), sumBuf, 8); err != nil {
				return err
			}
			running += u64At(sumBuf.Data, 0)
		}
		if err := set.Load(kernel2); err != nil {
			return err
		}
		if err := setU32Sym(set, "scan_n", uint32(per)); err != nil {
			return err
		}
		for d := 0; d < p.DPUs; d++ {
			if err := setU32SymAt(set, d, "scan_base", bases[d]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	if err := sdk.Phase(tl, trace.PhaseDPU, set.Launch); err != nil {
		return err
	}

	err = sdk.Phase(tl, trace.PhaseDPUCPU, func() error {
		for d := 0; d < p.DPUs; d++ {
			if err := set.PrepareXfer(d, subBuf(out, d*perBytes, perBytes)); err != nil {
				return err
			}
		}
		return set.PushXfer(sdk.FromDPU, int64(perBytes), perBytes)
	})
	if err != nil {
		return err
	}

	var running uint32
	for i := 0; i < n; i++ {
		running += input[i]
		if got := u32At(out.Data, i); got != running {
			return fmt.Errorf("scan: out[%d] = %d, want %d", i, got, running)
		}
	}
	return nil
}
