package prim

import (
	"fmt"

	"repro/internal/pim"
	"repro/internal/sdk"
	"repro/internal/trace"
)

// TS: time-series analysis. Each DPU scans its slice of the series (with a
// query-length overlap) for the window minimizing the sum of absolute
// differences against the broadcast query; the host reduces the per-DPU
// minima. This mirrors PrIM's subsequence-matching workload: compute-heavy
// with a single result exchange.

const (
	tsBaseLen  = 960_000
	tsQueryLen = 64
)

// tsKernel layout: series slice at 0 (ts_n points + ts_m-1 overlap), query
// at seriesBytes. Results go to the ts_min / ts_idx host symbols.
func tsKernel() *pim.Kernel {
	return &pim.Kernel{
		Name:      "prim/ts",
		Tasklets:  DefaultTasklets,
		CodeBytes: 9 << 10,
		Symbols: []pim.Symbol{
			{Name: "ts_n", Bytes: 4},
			{Name: "ts_m", Bytes: 4},
			{Name: "ts_min", Bytes: 8},
			{Name: "ts_idx", Bytes: 8},
		},
		Run: runTSKernel,
	}
}

func runTSKernel(ctx *pim.Ctx) error {
	if ctx.Me() == 0 {
		ctx.ResetHeap()
		if err := ctx.SetHostU64("ts_min", ^uint64(0)); err != nil {
			return err
		}
	}
	ctx.Barrier()
	n32, err := ctx.HostU32("ts_n")
	if err != nil {
		return err
	}
	m32, err := ctx.HostU32("ts_m")
	if err != nil {
		return err
	}
	n, m := int(n32), int(m32)
	qOff := (int64(n+m-1)*4 + 7) &^ 7

	query, err := ctx.SharedU32("ts_query", m)
	if err != nil {
		return err
	}
	if ctx.Me() == 0 {
		if err := ctx.ReadU32(qOff, query); err != nil {
			return err
		}
	}
	ctx.Barrier()

	// Sliding window over this tasklet's range; the buffer holds
	// the window plus lookahead, reloaded per block.
	start, end := ctx.Partition(n)
	const block = 128
	buf, err := ctx.AllocU32(block + tsQueryLen)
	if err != nil {
		return err
	}
	best := ^uint64(0)
	bestIdx := uint64(0)
	for off := start; off < end; off += block {
		cnt := min(block, end-off)
		if err := ctx.ReadU32(int64(off)*4, buf[:cnt+m-1]); err != nil {
			return err
		}
		for w := 0; w < cnt; w++ {
			var sad uint64
			for j, q := range query {
				d := int64(buf[w+j]) - int64(q)
				if d < 0 {
					d = -d
				}
				sad += uint64(d)
			}
			ctx.Tick(int64(m) * 5)
			if sad < best {
				best = sad
				bestIdx = uint64(off + w)
			}
		}
	}
	// Reduce across tasklets under the DPU mutex.
	ctx.Lock()
	defer ctx.Unlock()
	cur, err := ctx.HostU64("ts_min")
	if err != nil {
		return err
	}
	curIdx, err := ctx.HostU64("ts_idx")
	if err != nil {
		return err
	}
	if best < cur || (best == cur && bestIdx < curIdx) {
		if err := ctx.SetHostU64("ts_min", best); err != nil {
			return err
		}
		return ctx.SetHostU64("ts_idx", bestIdx)
	}
	return nil
}

// tsData is TS's prepared dataset: the series (with the query-length tail
// the last window reads), the query, and the CPU reference's minimum sum
// of absolute differences and the first window reaching it.
type tsData struct {
	series, query []uint32
	sad           uint64
	idx           int
}

func prepareTS(p Params) *tsData {
	r := p.Rand()
	n, m := p.size(tsBaseLen), tsQueryLen
	d := &tsData{series: make([]uint32, n+m-1), query: make([]uint32, m), sad: ^uint64(0)}
	for i := range d.series {
		d.series[i] = uint32(r.Intn(1 << 16))
	}
	for i := range d.query {
		d.query[i] = uint32(r.Intn(1 << 16))
	}
	for w := 0; w < n; w++ {
		var sad uint64
		for j := 0; j < m; j++ {
			diff := int64(d.series[w+j]) - int64(d.query[j])
			if diff < 0 {
				diff = -diff
			}
			sad += uint64(diff)
		}
		if sad < d.sad {
			d.sad, d.idx = sad, w
		}
	}
	return d
}

// RunTS executes the subsequence search and checks the global minimum.
func RunTS(env sdk.Env, p Params) error {
	p = p.withDefaults()
	n := p.size(tsBaseLen)
	m := tsQueryLen
	if n%p.DPUs != 0 {
		return fmt.Errorf("ts: %d points not divisible by %d DPUs", n, p.DPUs)
	}
	per := n / p.DPUs
	in := Prepared("TS", p, prepareTS)

	set, err := env.AllocSet(p.DPUs)
	if err != nil {
		return err
	}
	defer func() { _ = set.Free() }()
	if err := set.Load("prim/ts"); err != nil {
		return err
	}

	buf, err := AllocU32(env, in.series)
	if err != nil {
		return err
	}
	qBuf, err := AllocU32(env, in.query)
	if err != nil {
		return err
	}

	tl := env.Timeline()
	sliceElems := per + m - 1
	sliceBytes := sliceElems * 4
	qOff := PadTo(sliceBytes, 8)
	err = sdk.Phase(tl, trace.PhaseCPUDPU, func() error {
		if err := SetU32Sym(set, "ts_n", uint32(per)); err != nil {
			return err
		}
		if err := SetU32Sym(set, "ts_m", uint32(m)); err != nil {
			return err
		}
		// Windows overlap: each DPU's slice runs m-1 elements into the next.
		if err := PushSlices(set, sdk.ToDPU, 0, buf, per*4, sliceBytes); err != nil {
			return err
		}
		return PushSlices(set, sdk.ToDPU, int64(qOff), qBuf, 0, m*4)
	})
	if err != nil {
		return err
	}

	if err := sdk.Phase(tl, trace.PhaseDPU, set.Launch); err != nil {
		return err
	}

	gotSAD := ^uint64(0)
	gotIdx := uint64(0)
	err = sdk.Phase(tl, trace.PhaseDPUCPU, func() error {
		for d := 0; d < p.DPUs; d++ {
			sad, err := getU64Sym(set, d, "ts_min")
			if err != nil {
				return err
			}
			idx, err := getU64Sym(set, d, "ts_idx")
			if err != nil {
				return err
			}
			globalIdx := uint64(d*per) + idx
			if sad < gotSAD || (sad == gotSAD && globalIdx < gotIdx) {
				gotSAD = sad
				gotIdx = globalIdx
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	if gotSAD != in.sad || gotIdx != uint64(in.idx) {
		return fmt.Errorf("ts: min=(%d at %d), want (%d at %d)", gotSAD, gotIdx, in.sad, in.idx)
	}
	return nil
}
