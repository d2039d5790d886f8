package prim

import (
	"fmt"

	"repro/internal/pim"
	"repro/internal/sdk"
	"repro/internal/trace"
)

// SpMV: sparse matrix-vector multiply over a CSR matrix, rows partitioned
// across DPUs. PrIM's implementation pushes each DPU's CSR slice *serially*
// (one DPU at a time), so the CPU-DPU step grows with the DPU count — the
// paper's Fig. 8 shows SpMV among the four applications whose runtime rises
// from 60 to 480 DPUs for exactly this reason.

const (
	spmvBaseRows  = 115200
	spmvCols      = 4096
	spmvAvgPerRow = 64
)

// spmvKernel layout per DPU: rowptr (rows+1 u32, padded) at 0, colidx at
// spmv_col_off, values at spmv_val_off, x (full vector) at spmv_x_off, y
// slots at spmv_y_off.
func spmvKernel() *pim.Kernel {
	return &pim.Kernel{
		Name:      "prim/spmv",
		Tasklets:  DefaultTasklets,
		CodeBytes: 10 << 10,
		Symbols: []pim.Symbol{
			{Name: "spmv_rows", Bytes: 4},
			{Name: "spmv_cols", Bytes: 4},
			{Name: "spmv_col_off", Bytes: 4},
			{Name: "spmv_val_off", Bytes: 4},
			{Name: "spmv_x_off", Bytes: 4},
			{Name: "spmv_y_off", Bytes: 4},
		},
		Run: runSpMVKernel,
	}
}

func runSpMVKernel(ctx *pim.Ctx) error {
	if ctx.Me() == 0 {
		ctx.ResetHeap()
	}
	ctx.Barrier()
	syms := make(map[string]uint32, 6)
	for _, s := range []string{"spmv_rows", "spmv_cols", "spmv_col_off", "spmv_val_off", "spmv_x_off", "spmv_y_off"} {
		v, err := ctx.HostU32(s)
		if err != nil {
			return err
		}
		syms[s] = v
	}
	rows := int(syms["spmv_rows"])
	cols := int(syms["spmv_cols"])
	colOff := int64(syms["spmv_col_off"])
	valOff := int64(syms["spmv_val_off"])
	xOff := int64(syms["spmv_x_off"])
	yOff := int64(syms["spmv_y_off"])

	// The dense vector x lives in shared WRAM (PrIM keeps it
	// resident; 16 KB at 4096 columns).
	x, err := ctx.SharedU32("spmv_x", cols)
	if err != nil {
		return err
	}
	if ctx.Me() == 0 {
		if err := ctx.ReadU32(xOff, x); err != nil {
			return err
		}
	}
	ctx.Barrier()

	rp, err := ctx.AllocU32(4)
	if err != nil {
		return err
	}
	nz, err := ctx.AllocU32(256)
	if err != nil {
		return err
	}
	vals, err := ctx.AllocU32(256)
	if err != nil {
		return err
	}
	yBuf, err := ctx.AllocU32(2)
	if err != nil {
		return err
	}
	nt := ctx.NumTasklets()
	for row := ctx.Me(); row < rows; row += nt {
		// rowptr[row], rowptr[row+1]: one aligned 16-byte read
		// covers both (slots are 4 bytes; read the aligned pair).
		if err := ctx.ReadU32(int64(row&^1)*4, rp); err != nil {
			return err
		}
		idx := row & 1
		lo, hi := int(rp[idx]), int(rp[idx+1])
		var acc uint32
		for pos := lo; pos < hi; {
			cnt := min(hi-pos, 254)
			// colidx/value reads start 4-byte aligned at worst;
			// align down to the 8-byte grain.
			shift := pos & 1
			n := (cnt + shift + 1) &^ 1
			if err := ctx.ReadU32(colOff+int64(pos&^1)*4, nz[:n]); err != nil {
				return err
			}
			if err := ctx.ReadU32(valOff+int64(pos&^1)*4, vals[:n]); err != nil {
				return err
			}
			for i, c := range nz[shift : shift+cnt] {
				acc += vals[shift+i] * x[c]
			}
			ctx.Tick(int64(cnt) * 6)
			pos += cnt
		}
		yBuf[0], yBuf[1] = acc, 0
		if err := ctx.WriteU32(yBuf, yOff+int64(row)*8); err != nil {
			return err
		}
	}
	return nil
}

// spmvData is SpMV's prepared dataset: a random CSR matrix A, the vector
// x and the CPU product y.
type spmvData struct{ rowptr, colidx, vals, x, y []uint32 }

func prepareSpMV(p Params) *spmvData {
	r := p.Rand()
	rows, cols := p.size(spmvBaseRows), spmvCols
	rowptr := make([]uint32, rows+1)
	var colidx, vals []uint32
	for rIdx := 0; rIdx < rows; rIdx++ {
		rowptr[rIdx] = uint32(len(colidx))
		nnz := 1 + r.Intn(2*spmvAvgPerRow)
		prev := -1
		for k := 0; k < nnz; k++ {
			step := 1 + r.Intn(2*cols/nnz)
			c := prev + step
			if c >= cols {
				break
			}
			colidx = append(colidx, uint32(c))
			vals = append(vals, uint32(r.Intn(1<<10)))
			prev = c
		}
	}
	rowptr[rows] = uint32(len(colidx))
	x := make([]uint32, cols)
	for i := range x {
		x[i] = uint32(r.Intn(1 << 10))
	}
	y := make([]uint32, rows)
	for rIdx := range y {
		for pos := rowptr[rIdx]; pos < rowptr[rIdx+1]; pos++ {
			y[rIdx] += vals[pos] * x[colidx[pos]]
		}
	}
	return &spmvData{rowptr: rowptr, colidx: colidx, vals: vals, x: x, y: y}
}

// RunSpMV executes y = A*x on a random CSR matrix and checks against CPU.
func RunSpMV(env sdk.Env, p Params) error {
	p = p.withDefaults()
	rows := p.size(spmvBaseRows)
	cols := spmvCols
	if rows%p.DPUs != 0 {
		return fmt.Errorf("spmv: %d rows not divisible by %d DPUs", rows, p.DPUs)
	}
	perRows := rows / p.DPUs
	in := prepared("SpMV", p, prepareSpMV)
	rowptr, colidx, vals := in.rowptr, in.colidx, in.vals

	set, err := env.AllocSet(p.DPUs)
	if err != nil {
		return err
	}
	defer func() { _ = set.Free() }()
	if err := set.Load("prim/spmv"); err != nil {
		return err
	}

	xBuf, err := allocU32(env, in.x)
	if err != nil {
		return err
	}
	yBuf, err := env.AllocBuffer(rows * 8)
	if err != nil {
		return err
	}

	// Uniform MRAM layout across DPUs, padded to the largest slice, so the
	// geometry broadcasts once (dpu_broadcast_to) while the CSR data itself
	// is still distributed serially, one DPU at a time (PrIM's SpMV style).
	maxNNZPad := 2
	for d := 0; d < p.DPUs; d++ {
		if nnz := padTo(int(rowptr[(d+1)*perRows]-rowptr[d*perRows]), 2); nnz > maxNNZPad {
			maxNNZPad = nnz
		}
	}
	ptrBytes := padTo((perRows+2)*4, 8)
	colOff := int64(ptrBytes)
	valOff := colOff + int64(maxNNZPad*4)
	xOff := valOff + int64(maxNNZPad*4)
	yOff := xOff + int64(cols*4)

	tl := env.Timeline()
	err = sdk.Phase(tl, trace.PhaseCPUDPU, func() error {
		if err := setU32Sym(set, "spmv_rows", uint32(perRows)); err != nil {
			return err
		}
		if err := setU32Sym(set, "spmv_cols", uint32(cols)); err != nil {
			return err
		}
		if err := setU32Sym(set, "spmv_col_off", uint32(colOff)); err != nil {
			return err
		}
		if err := setU32Sym(set, "spmv_val_off", uint32(valOff)); err != nil {
			return err
		}
		if err := setU32Sym(set, "spmv_x_off", uint32(xOff)); err != nil {
			return err
		}
		if err := setU32Sym(set, "spmv_y_off", uint32(yOff)); err != nil {
			return err
		}
		// Serial CSR distribution: one DPU at a time.
		for d := 0; d < p.DPUs; d++ {
			lo := rowptr[d*perRows]
			hi := rowptr[(d+1)*perRows]
			localPtr := make([]uint32, perRows+2)
			for i := 0; i <= perRows; i++ {
				localPtr[i] = rowptr[d*perRows+i] - lo
			}
			nnz := int(hi - lo)
			nnzPad := padTo(nnz, 2)

			ptrBuf, err := allocU32(env, localPtr)
			if err != nil {
				return err
			}
			if err := set.CopyToMRAM(d, 0, ptrBuf, ptrBytes); err != nil {
				return err
			}
			if nnz > 0 {
				colBuf, err := allocU32(env, append(colidx[lo:hi:hi], 0))
				if err != nil {
					return err
				}
				if err := set.CopyToMRAM(d, colOff, colBuf, nnzPad*4); err != nil {
					return err
				}
				valBuf, err := allocU32(env, append(vals[lo:hi:hi], 0))
				if err != nil {
					return err
				}
				if err := set.CopyToMRAM(d, valOff, valBuf, nnzPad*4); err != nil {
					return err
				}
			}
			if err := set.CopyToMRAM(d, xOff, xBuf, cols*4); err != nil {
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
			if err := set.CopyFromMRAM(d, yOff, subBuf(yBuf, d*perRows*8, perRows*8), perRows*8); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	for rIdx, want := range in.y {
		if got := u32At(yBuf.Data, rIdx*2); got != want {
			return fmt.Errorf("spmv: y[%d] = %d, want %d", rIdx, got, want)
		}
	}
	return nil
}
