package prim

import (
	"fmt"

	"repro/internal/pim"
	"repro/internal/sdk"
	"repro/internal/trace"
)

// TRNS: matrix transposition. Tiles are scattered to DPUs with one small
// write per tile *row* in the CPU-DPU step — the step-wise in-place layout
// PrIM uses, which at 480 DPUs produces the ~10^6 small write-to-rank
// operations the paper reports (we run a scaled-down count; the pattern and
// the per-operation size are preserved). DPUs transpose their tiles locally;
// the host reads the transposed tiles back in one bulk transfer per DPU.

const (
	trnsTile     = 32
	trnsBaseRows = 1536
	trnsBaseCols = 1280
)

const (
	trnsTileWords = trnsTile * trnsTile
	trnsTileBytes = trnsTileWords * 4
	trnsRowBytes  = trnsTile * 4
)

// trnsKernel layout: input tiles at slot*tileBytes, transposed output tiles
// at trns_out_off + slot*tileBytes.
func trnsKernel() *pim.Kernel {
	return &pim.Kernel{
		Name: "prim/trns",
		// 8 tasklets: two full 4 KB tile buffers per tasklet exactly fill
		// the 64 KB WRAM bank (PrIM also runs TRNS below the 11-tasklet
		// pipeline optimum for the same reason).
		Tasklets:  8,
		CodeBytes: 6 << 10,
		Symbols: []pim.Symbol{
			{Name: "trns_ntiles", Bytes: 4},
			{Name: "trns_out_off", Bytes: 4},
		},
		Run: runTRNSKernel,
	}
}

func runTRNSKernel(ctx *pim.Ctx) error {
	if ctx.Me() == 0 {
		ctx.ResetHeap()
	}
	ctx.Barrier()
	nt32, err := ctx.HostU32("trns_ntiles")
	if err != nil {
		return err
	}
	outOff32, err := ctx.HostU32("trns_out_off")
	if err != nil {
		return err
	}
	nTiles := int(nt32)
	outOff := int64(outOff32)
	if nTiles == 0 {
		return nil
	}
	in, err := ctx.AllocU32(trnsTileWords)
	if err != nil {
		return err
	}
	out, err := ctx.AllocU32(trnsTileWords)
	if err != nil {
		return err
	}
	nt := ctx.NumTasklets()
	for s := ctx.Me(); s < nTiles; s += nt {
		base := int64(s) * trnsTileBytes
		if err := ctx.ReadU32(base, in); err != nil {
			return err
		}
		for rIdx := 0; rIdx < trnsTile; rIdx++ {
			for c := 0; c < trnsTile; c++ {
				out[c*trnsTile+rIdx] = in[rIdx*trnsTile+c]
			}
		}
		ctx.Tick(int64(trnsTileWords) * 4)
		if err := ctx.WriteU32(out, outOff+base); err != nil {
			return err
		}
	}
	return nil
}

// trnsData is TRNS's prepared dataset: the matrix. Its transpose is checked
// in the run.
type trnsData struct{ mat []uint32 }

func prepareTRNS(p Params) *trnsData {
	r := p.Rand()
	d := &trnsData{mat: make([]uint32, p.size(trnsBaseRows)*trnsBaseCols)}
	for i := range d.mat {
		d.mat[i] = uint32(r.Intn(1 << 30))
	}
	return d
}

// RunTRNS transposes a random matrix and checks every element.
func RunTRNS(env sdk.Env, p Params) error {
	p = p.withDefaults()
	rows := p.size(trnsBaseRows)
	cols := trnsBaseCols
	tr, tc := rows/trnsTile, cols/trnsTile
	if tr*trnsTile != rows || tc*trnsTile != cols {
		return fmt.Errorf("trns: %dx%d not divisible by tile %d", rows, cols, trnsTile)
	}
	nTiles := tr * tc
	mat := prepared("TRNS", p, prepareTRNS).mat

	set, err := env.AllocSet(p.DPUs)
	if err != nil {
		return err
	}
	defer func() { _ = set.Free() }()
	if err := set.Load("prim/trns"); err != nil {
		return err
	}

	// Round-robin tile assignment.
	type tileRef struct{ dpu, slot int }
	assign := make([]tileRef, nTiles)
	slots := make([]int, p.DPUs)
	for t := 0; t < nTiles; t++ {
		d := t % p.DPUs
		assign[t] = tileRef{dpu: d, slot: slots[d]}
		slots[d]++
	}
	maxSlots := 0
	for _, s := range slots {
		if s > maxSlots {
			maxSlots = s
		}
	}
	outOff := int64(maxSlots) * trnsTileBytes

	rowBuf, err := env.AllocBuffer(trnsRowBytes)
	if err != nil {
		return err
	}

	tl := env.Timeline()
	// CPU-DPU: one small write per tile row (the step-wise layout).
	err = sdk.Phase(tl, trace.PhaseCPUDPU, func() error {
		if err := setU32Sym(set, "trns_out_off", uint32(outOff)); err != nil {
			return err
		}
		for d := 0; d < p.DPUs; d++ {
			if err := setU32SymAt(set, d, "trns_ntiles", uint32(slots[d])); err != nil {
				return err
			}
		}
		for t := 0; t < nTiles; t++ {
			ti, tj := t/tc, t%tc
			ref := assign[t]
			for rIdx := 0; rIdx < trnsTile; rIdx++ {
				srcRow := ti*trnsTile + rIdx
				srcCol := tj * trnsTile
				for k := 0; k < trnsTile; k++ {
					putU32At(rowBuf.Data, k, mat[srcRow*cols+srcCol+k])
				}
				off := int64(ref.slot)*trnsTileBytes + int64(rIdx)*trnsRowBytes
				if err := set.CopyToMRAM(ref.dpu, off, rowBuf, trnsRowBytes); err != nil {
					return err
				}
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

	// DPU-CPU: bulk read of each DPU's transposed tile region.
	got := make([]uint32, cols*rows)
	err = sdk.Phase(tl, trace.PhaseDPUCPU, func() error {
		outBuf, err := env.AllocBuffer(maxSlots * trnsTileBytes)
		if err != nil {
			return err
		}
		for d := 0; d < p.DPUs; d++ {
			if slots[d] == 0 {
				continue
			}
			n := slots[d] * trnsTileBytes
			if err := set.CopyFromMRAM(d, outOff, outBuf, n); err != nil {
				return err
			}
			// Scatter this DPU's transposed tiles into the result matrix.
			for t := d; t < nTiles; t += p.DPUs {
				ti, tj := t/tc, t%tc
				slotBase := assign[t].slot * trnsTileBytes
				for rIdx := 0; rIdx < trnsTile; rIdx++ {
					dstRow := tj*trnsTile + rIdx
					dstCol := ti * trnsTile
					for k := 0; k < trnsTile; k++ {
						got[dstRow*rows+dstCol+k] = u32At(outBuf.Data, slotBase/4+rIdx*trnsTile+k)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	for rIdx := 0; rIdx < rows; rIdx++ {
		for c := 0; c < cols; c++ {
			if got[c*rows+rIdx] != mat[rIdx*cols+c] {
				return fmt.Errorf("trns: T[%d][%d] mismatch", c, rIdx)
			}
		}
	}
	return nil
}
