package prim

import (
	"fmt"

	"repro/internal/pim"
	"repro/internal/sdk"
	"repro/internal/trace"
)

// MLP: multilayer perceptron inference in fixed point. Each layer is a
// row-partitioned matrix-vector product with ReLU and a right shift; between
// layers the host gathers the activation slices from all DPUs and broadcasts
// the full vector back (the Inter-DPU step).

const (
	mlpInputDim  = 256
	mlpHiddenDim = 1920
	mlpLayers    = 3
	mlpShift     = 6
)

// mlpKernel layout: all layer weights are resident (pushed once in CPU-DPU);
// symbols select the active layer's geometry and weight offset. x lives at
// mlp_xoff, y slots (8 B each) at mlp_yoff.
func mlpKernel() *pim.Kernel {
	return &pim.Kernel{
		Name:      "prim/mlp",
		Tasklets:  DefaultTasklets,
		CodeBytes: 9 << 10,
		Symbols: []pim.Symbol{
			{Name: "mlp_rows", Bytes: 4},
			{Name: "mlp_cols", Bytes: 4},
			{Name: "mlp_woff", Bytes: 4},
			{Name: "mlp_xoff", Bytes: 4},
			{Name: "mlp_yoff", Bytes: 4},
		},
		Run: runMLPKernel,
	}
}

func runMLPKernel(ctx *pim.Ctx) error {
	if ctx.Me() == 0 {
		ctx.ResetHeap()
	}
	ctx.Barrier()
	rows, err := ctx.HostU32("mlp_rows")
	if err != nil {
		return err
	}
	cols, err := ctx.HostU32("mlp_cols")
	if err != nil {
		return err
	}
	woff, err := ctx.HostU32("mlp_woff")
	if err != nil {
		return err
	}
	xoff, err := ctx.HostU32("mlp_xoff")
	if err != nil {
		return err
	}
	yoff, err := ctx.HostU32("mlp_yoff")
	if err != nil {
		return err
	}
	n := int(cols)

	x, err := ctx.SharedU32("mlp_x", n)
	if err != nil {
		return err
	}
	if ctx.Me() == 0 {
		if err := ctx.ReadU32(int64(xoff), x); err != nil {
			return err
		}
	}
	ctx.Barrier()

	// Rows are streamed through a 2 KB WRAM buffer: a full row of a
	// wide layer would not fit 16 tasklets into the 64 KB bank.
	rowBuf, err := ctx.AllocU32(512)
	if err != nil {
		return err
	}
	yBuf, err := ctx.AllocU32(2)
	if err != nil {
		return err
	}
	nt := ctx.NumTasklets()
	for row := ctx.Me(); row < int(rows); row += nt {
		base := int64(woff) + int64(row)*int64(n)*4
		var acc int64
		for off := 0; off < n; off += len(rowBuf) {
			w := rowBuf[:min(len(rowBuf), n-off)]
			if err := ctx.ReadU32(base+int64(off)*4, w); err != nil {
				return err
			}
			for c, v := range w {
				acc += int64(int32(v)) * int64(int32(x[off+c]))
			}
		}
		ctx.Tick(int64(cols) * 5)
		// ReLU then fixed-point renormalization.
		if acc < 0 {
			acc = 0
		}
		acc >>= mlpShift
		yBuf[0], yBuf[1] = uint32(int32(acc)), 0
		if err := ctx.WriteU32(yBuf, int64(yoff)+int64(row)*8); err != nil {
			return err
		}
	}
	return nil
}

// mlpDims are the layer widths: the input, then each layer's output.
var mlpDims = [mlpLayers + 1]int{mlpInputDim, mlpHiddenDim, mlpHiddenDim, mlpHiddenDim}

// mlpData is MLP's prepared dataset: each layer's weights as the int32
// words pushed to the DPUs, the input activations and the CPU model's
// output.
type mlpData struct {
	weights [][]uint32
	x0      []int32
	want    []int32
}

func prepareMLP(p Params) *mlpData {
	r := p.Rand()
	d := &mlpData{weights: make([][]uint32, mlpLayers), x0: make([]int32, mlpDims[0])}
	for l := range d.weights {
		w := make([]uint32, mlpDims[l+1]*mlpDims[l])
		for i := range w {
			w[i] = uint32(int32(r.Intn(16) - 8))
		}
		d.weights[l] = w
	}
	for i := range d.x0 {
		d.x0[i] = int32(r.Intn(64))
	}
	d.want = mlpReference(d.weights, d.x0)
	return d
}

// mlpReference is the CPU model.
func mlpReference(weights [][]uint32, x []int32) []int32 {
	act := x
	for l, w := range weights {
		rows, cols := mlpDims[l+1], mlpDims[l]
		next := make([]int32, rows)
		for rIdx := 0; rIdx < rows; rIdx++ {
			var acc int64
			for c := 0; c < cols; c++ {
				acc += int64(int32(w[rIdx*cols+c])) * int64(act[c])
			}
			if acc < 0 {
				acc = 0
			}
			next[rIdx] = int32(acc >> mlpShift)
		}
		act = next
	}
	return act
}

// RunMLP executes 3-layer inference and checks the final activations.
func RunMLP(env sdk.Env, p Params) error {
	p = p.withDefaults()
	dims := mlpDims[:]
	for l := 1; l < len(dims); l++ {
		if dims[l]%p.DPUs != 0 {
			return fmt.Errorf("mlp: layer dim %d not divisible by %d DPUs", dims[l], p.DPUs)
		}
	}
	in := prepared("MLP", p, prepareMLP)

	set, err := env.AllocSet(p.DPUs)
	if err != nil {
		return err
	}
	defer func() { _ = set.Free() }()
	if err := set.Load("prim/mlp"); err != nil {
		return err
	}

	// Per-DPU MRAM layout: the DPU's row blocks of W1|W2|W3, then the x
	// buffer (max dim), then the y slots.
	woffs := make([]int, mlpLayers)
	off := 0
	maxDim := 0
	for l := 0; l < mlpLayers; l++ {
		woffs[l] = off
		perRows := dims[l+1] / p.DPUs
		off += perRows * dims[l] * 4
	}
	for _, d := range dims {
		if d > maxDim {
			maxDim = d
		}
	}
	xoff := padTo(off, 8)
	yoff := xoff + maxDim*4

	tl := env.Timeline()

	// CPU-DPU: push every layer's row block.
	err = sdk.Phase(tl, trace.PhaseCPUDPU, func() error {
		for l := 0; l < mlpLayers; l++ {
			perRows := dims[l+1] / p.DPUs
			rowBytes := dims[l] * 4
			perBytes := perRows * rowBytes
			wBuf, err := allocU32(env, in.weights[l])
			if err != nil {
				return err
			}
			if err := pushSlices(set, sdk.ToDPU, int64(woffs[l]), wBuf, perBytes, perBytes); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	act := in.x0
	for l := 0; l < mlpLayers; l++ {
		perRows := dims[l+1] / p.DPUs
		phase := trace.PhaseInterDPU
		if l == 0 {
			phase = trace.PhaseCPUDPU
		}
		// Broadcast the activation vector and configure the layer.
		err = sdk.Phase(tl, phase, func() error {
			actU32 := make([]uint32, len(act))
			for i, v := range act {
				actU32[i] = uint32(v)
			}
			xBuf, err := allocU32(env, actU32)
			if err != nil {
				return err
			}
			if err := pushSlices(set, sdk.ToDPU, int64(xoff), xBuf, 0, len(act)*4); err != nil {
				return err
			}
			if err := setU32Sym(set, "mlp_rows", uint32(perRows)); err != nil {
				return err
			}
			if err := setU32Sym(set, "mlp_cols", uint32(dims[l])); err != nil {
				return err
			}
			if err := setU32Sym(set, "mlp_woff", uint32(woffs[l])); err != nil {
				return err
			}
			if err := setU32Sym(set, "mlp_xoff", uint32(xoff)); err != nil {
				return err
			}
			return setU32Sym(set, "mlp_yoff", uint32(yoff))
		})
		if err != nil {
			return err
		}

		if err := sdk.Phase(tl, trace.PhaseDPU, set.Launch); err != nil {
			return err
		}

		// Gather the layer output slices from every DPU.
		next := make([]int32, dims[l+1])
		gatherPhase := trace.PhaseInterDPU
		if l == mlpLayers-1 {
			gatherPhase = trace.PhaseDPUCPU
		}
		err = sdk.Phase(tl, gatherPhase, func() error {
			yBuf, err := env.AllocBuffer(dims[l+1] * 8)
			if err != nil {
				return err
			}
			if err := pushSlices(set, sdk.FromDPU, int64(yoff), yBuf, perRows*8, perRows*8); err != nil {
				return err
			}
			for i := 0; i < dims[l+1]; i++ {
				next[i] = int32(u32At(yBuf.Data, i*2))
			}
			return nil
		})
		if err != nil {
			return err
		}
		act = next
	}

	for i, want := range in.want {
		if act[i] != want {
			return fmt.Errorf("mlp: out[%d] = %d, want %d", i, act[i], want)
		}
	}
	return nil
}
