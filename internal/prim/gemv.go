package prim

import (
	"fmt"

	"repro/internal/pim"
	"repro/internal/sdk"
	"repro/internal/trace"
)

// GEMV: dense matrix-vector multiply, rows partitioned across DPUs. The
// input vector is broadcast; each DPU computes its slice of y.

const (
	gemvBaseRows = 19200
	gemvCols     = 512
)

// gemvKernel layout: row block at 0 (gemv_rows x gemv_cols u32), x at
// rowsBytes, y output at rowsBytes + colsBytes.
func gemvKernel() *pim.Kernel {
	return &pim.Kernel{
		Name:      "prim/gemv",
		Tasklets:  DefaultTasklets,
		CodeBytes: 8 << 10,
		Symbols: []pim.Symbol{
			{Name: "gemv_rows", Bytes: 4},
			{Name: "gemv_cols", Bytes: 4},
		},
		Run: runGEMVKernel,
	}
}

func runGEMVKernel(ctx *pim.Ctx) error {
	if ctx.Me() == 0 {
		ctx.ResetHeap()
	}
	ctx.Barrier()
	rows32, err := ctx.HostU32("gemv_rows")
	if err != nil {
		return err
	}
	cols32, err := ctx.HostU32("gemv_cols")
	if err != nil {
		return err
	}
	rows, cols := int(rows32), int(cols32)
	rowBytes := int64(cols) * 4
	matBytes := int64(rows) * rowBytes

	// All tasklets share the input vector in WRAM; tasklet 0 loads it.
	x, err := ctx.SharedU32("gemv_x", cols)
	if err != nil {
		return err
	}
	if ctx.Me() == 0 {
		if err := ctx.ReadU32(matBytes, x); err != nil {
			return err
		}
	}
	ctx.Barrier()

	rowBuf, err := ctx.AllocU32(cols)
	if err != nil {
		return err
	}
	yBuf, err := ctx.AllocU32(2)
	if err != nil {
		return err
	}
	nt := ctx.NumTasklets()
	for row := ctx.Me(); row < rows; row += nt {
		if err := ctx.ReadU32(int64(row)*rowBytes, rowBuf); err != nil {
			return err
		}
		var acc uint32
		for c, m := range rowBuf {
			acc += m * x[c]
		}
		ctx.Tick(int64(cols) * 4)
		// y elements are 4 bytes but DMA needs 8-byte grain: rows are
		// processed in pairs by parity so adjacent tasklets never share a
		// word. Write each y value into an 8-byte aligned slot.
		yBuf[0], yBuf[1] = acc, 0
		if err := ctx.WriteU32(yBuf, matBytes+rowBytes+int64(row)*8); err != nil {
			return err
		}
	}
	return nil
}

// gemvData is GEMV's prepared dataset: M, x and the CPU product y.
type gemvData struct{ mat, x, y []uint32 }

func prepareGEMV(p Params) *gemvData {
	r := p.Rand()
	rows, cols := p.size(gemvBaseRows), gemvCols
	d := &gemvData{mat: make([]uint32, rows*cols), x: make([]uint32, cols), y: make([]uint32, rows)}
	for i := range d.mat {
		d.mat[i] = uint32(r.Intn(1 << 10))
	}
	for i := range d.x {
		d.x[i] = uint32(r.Intn(1 << 10))
	}
	for row := range d.y {
		var y uint32
		for c := 0; c < cols; c++ {
			y += d.mat[row*cols+c] * d.x[c]
		}
		d.y[row] = y
	}
	return d
}

// RunGEMV executes y = M*x and checks against the CPU product.
func RunGEMV(env sdk.Env, p Params) error {
	p = p.withDefaults()
	rows := p.size(gemvBaseRows)
	cols := gemvCols
	if rows%p.DPUs != 0 {
		return fmt.Errorf("gemv: %d rows not divisible by %d DPUs", rows, p.DPUs)
	}
	perRows := rows / p.DPUs
	rowBytes := cols * 4
	perBytes := perRows * rowBytes
	in := prepared("GEMV", p, prepareGEMV)

	set, err := env.AllocSet(p.DPUs)
	if err != nil {
		return err
	}
	defer func() { _ = set.Free() }()
	if err := set.Load("prim/gemv"); err != nil {
		return err
	}

	matBuf, err := allocU32(env, in.mat)
	if err != nil {
		return err
	}
	xBuf, err := allocU32(env, in.x)
	if err != nil {
		return err
	}
	// y slots are 8 bytes per row (see kernel).
	yBuf, err := env.AllocBuffer(rows * 8)
	if err != nil {
		return err
	}

	tl := env.Timeline()
	err = sdk.Phase(tl, trace.PhaseCPUDPU, func() error {
		if err := setU32Sym(set, "gemv_rows", uint32(perRows)); err != nil {
			return err
		}
		if err := setU32Sym(set, "gemv_cols", uint32(cols)); err != nil {
			return err
		}
		if err := pushSlices(set, sdk.ToDPU, 0, matBuf, perBytes, perBytes); err != nil {
			return err
		}
		// Broadcast x to every DPU right after its row block.
		return pushSlices(set, sdk.ToDPU, int64(perBytes), xBuf, 0, rowBytes)
	})
	if err != nil {
		return err
	}

	if err := sdk.Phase(tl, trace.PhaseDPU, set.Launch); err != nil {
		return err
	}

	err = sdk.Phase(tl, trace.PhaseDPUCPU, func() error {
		return pushSlices(set, sdk.FromDPU, int64(perBytes)+int64(rowBytes), yBuf, perRows*8, perRows*8)
	})
	if err != nil {
		return err
	}

	for row, want := range in.y {
		if got := u32At(yBuf.Data, row*2); got != want {
			return fmt.Errorf("gemv: y[%d] = %d, want %d", row, got, want)
		}
	}
	return nil
}
