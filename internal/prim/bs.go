package prim

import (
	"fmt"

	"repro/internal/pim"
	"repro/internal/sdk"
	"repro/internal/trace"
)

// BS: binary search. A sorted array is range-partitioned across DPUs; every
// DPU receives the full query batch and searches its own partition, writing
// the local hit position (or a miss marker) per query; the host merges.

const (
	bsBaseElems = 3_840_000
	bsQueries   = 2048
	bsMiss      = 0xFFFFFFFF
)

// bsKernel layout: sorted chunk at 0 (bs_n elements), queries at nBytes
// (bs_q elements), results at nBytes + qBytes (8-byte slots per query).
func bsKernel() *pim.Kernel {
	return &pim.Kernel{
		Name:      "prim/bs",
		Tasklets:  DefaultTasklets,
		CodeBytes: 7 << 10,
		Symbols: []pim.Symbol{
			{Name: "bs_n", Bytes: 4},
			{Name: "bs_q", Bytes: 4},
		},
		Run: runBSKernel,
	}
}

func runBSKernel(ctx *pim.Ctx) error {
	if ctx.Me() == 0 {
		ctx.ResetHeap()
	}
	ctx.Barrier()
	n32, err := ctx.HostU32("bs_n")
	if err != nil {
		return err
	}
	q32, err := ctx.HostU32("bs_q")
	if err != nil {
		return err
	}
	n, q := int(n32), int(q32)
	nBytes := int64(n) * 4
	qBytes := int64(q) * 4
	qBuf, err := ctx.AllocU32(256)
	if err != nil {
		return err
	}
	probe, err := ctx.AllocU32(2)
	if err != nil {
		return err
	}
	out, err := ctx.AllocU32(2)
	if err != nil {
		return err
	}
	start, end := ctx.Partition(q)
	for qoff := start; qoff < end; qoff += len(qBuf) {
		w := qBuf[:min(len(qBuf), end-qoff)]
		if err := ctx.ReadU32(nBytes+int64(qoff)*4, w); err != nil {
			return err
		}
		for i, target := range w {
			lo, hi := 0, n-1
			res := uint32(bsMiss)
			for lo <= hi {
				mid := (lo + hi) / 2
				// Each probe is one aligned 8-byte MRAM read.
				if err := ctx.ReadU32(int64(mid&^1)*4, probe); err != nil {
					return err
				}
				v := probe[mid&1]
				switch {
				case v == target:
					res = uint32(mid)
					lo = hi + 1
				case v < target:
					lo = mid + 1
				default:
					hi = mid - 1
				}
				ctx.Tick(8)
			}
			out[0], out[1] = res, 0
			if err := ctx.WriteU32(out, nBytes+qBytes+int64(qoff+i)*8); err != nil {
				return err
			}
		}
	}
	return nil
}

// bsData is BS's prepared dataset: the sorted array and the query batch,
// drawn from it. Each hit is checked in the run.
type bsData struct{ arr, queries []uint32 }

func prepareBS(p Params) *bsData {
	r := p.Rand()
	n := p.size(bsBaseElems)
	d := &bsData{arr: sortedU32(r, n), queries: make([]uint32, bsQueries)}
	for i := range d.queries {
		d.queries[i] = d.arr[r.Intn(n)]
	}
	return d
}

// RunBS executes the batch binary search and checks every query position.
func RunBS(env sdk.Env, p Params) error {
	p = p.withDefaults()
	n := p.size(bsBaseElems)
	if n%p.DPUs != 0 {
		return fmt.Errorf("bs: %d elements not divisible by %d DPUs", n, p.DPUs)
	}
	per := n / p.DPUs
	perBytes := per * 4
	q := bsQueries
	in := prepared("BS", p, prepareBS)
	arr, queries := in.arr, in.queries

	set, err := env.AllocSet(p.DPUs)
	if err != nil {
		return err
	}
	defer func() { _ = set.Free() }()
	if err := set.Load("prim/bs"); err != nil {
		return err
	}

	arrBuf, err := allocU32(env, arr)
	if err != nil {
		return err
	}
	qBuf, err := allocU32(env, queries)
	if err != nil {
		return err
	}
	resBuf, err := env.AllocBuffer(q * 8)
	if err != nil {
		return err
	}

	tl := env.Timeline()
	err = sdk.Phase(tl, trace.PhaseCPUDPU, func() error {
		if err := setU32Sym(set, "bs_n", uint32(per)); err != nil {
			return err
		}
		if err := setU32Sym(set, "bs_q", uint32(q)); err != nil {
			return err
		}
		if err := pushSlices(set, sdk.ToDPU, 0, arrBuf, perBytes, perBytes); err != nil {
			return err
		}
		return pushSlices(set, sdk.ToDPU, int64(perBytes), qBuf, 0, q*4)
	})
	if err != nil {
		return err
	}

	if err := sdk.Phase(tl, trace.PhaseDPU, set.Launch); err != nil {
		return err
	}

	found := make([]uint32, q)
	for i := range found {
		found[i] = bsMiss
	}
	err = sdk.Phase(tl, trace.PhaseDPUCPU, func() error {
		for d := 0; d < p.DPUs; d++ {
			if err := set.PrepareXfer(d, resBuf); err != nil {
				return err
			}
			// Results are small; read each DPU's result block and merge.
			if err := set.PushXfer(sdk.FromDPU, int64(perBytes)+int64(q)*4, q*8); err != nil {
				return err
			}
			for i := 0; i < q; i++ {
				if v := u32At(resBuf.Data, i*2); v != bsMiss {
					found[i] = uint32(d*per) + v
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	for i, target := range queries {
		if found[i] == bsMiss {
			return fmt.Errorf("bs: query %d (%d) not found", i, target)
		}
		if arr[found[i]] != target {
			return fmt.Errorf("bs: query %d found %d = %d, want %d", i, found[i], arr[found[i]], target)
		}
	}
	return nil
}
