package prim

import (
	"fmt"

	"repro/internal/pim"
	"repro/internal/sdk"
	"repro/internal/trace"
)

// NW: Needleman-Wunsch global sequence alignment. The DP matrix is computed
// in BxB blocks along anti-diagonals; every diagonal iteration the host
// pushes each block's boundary rows/columns and sequence slices to its DPU
// and reads the new boundaries back. Transfers are issued in ~128-136 byte
// pieces, matching PrIM's implementation where every DP element block
// becomes its own small operation (the paper counts >650,000 operations of
// ~160 bytes per step). This is the worst-case workload for
// para-virtualization: Fig. 8 shows the largest optimized overhead and
// Fig. 14 a 53x naive overhead.

const (
	nwBaseLen = 8192
	nwBlock   = 64
	// NW scoring: +1 match, -1 mismatch, -1 gap.
	nwMatch    = 1
	nwMismatch = -1
	nwGap      = -1
)

// MRAM layout. Input slot s (one per block a DPU processes on the current
// diagonal) holds seqA, seqB, top boundary and left boundary; outputs are
// packed in a separate contiguous region so a DPU's boundary reads for one
// diagonal are consecutive small reads (the access pattern the prefetch
// cache exists for).
const (
	nwSeqBytes    = nwBlock * 4                           // 256 B
	nwEdgeWords   = nwBlock + 2                           // 66 words used (+ padding)
	nwEdgeBytes   = nwEdgeWords*4 + 8 - (nwEdgeWords*4)%8 // 272 B, 8-aligned
	nwInSlotBytes = 2*nwSeqBytes + 2*nwEdgeBytes
	nwOutSlot     = 2 * nwEdgeBytes // outBottom + outRight per slot
	// nwPiece is the transfer granularity of boundary pieces (~136 B, the
	// paper's "160 Bytes on average" operations).
	nwPiece = nwEdgeBytes / 2
)

func nwKernel() *pim.Kernel {
	return &pim.Kernel{
		Name:      "prim/nw",
		Tasklets:  DefaultTasklets,
		CodeBytes: 12 << 10,
		Symbols: []pim.Symbol{
			{Name: "nw_nblocks", Bytes: 4},
			{Name: "nw_out_off", Bytes: 4},
		},
		Run: runNWKernel,
	}
}

func runNWKernel(ctx *pim.Ctx) error {
	if ctx.Me() == 0 {
		ctx.ResetHeap()
	}
	ctx.Barrier()
	nb32, err := ctx.HostU32("nw_nblocks")
	if err != nil {
		return err
	}
	outOff32, err := ctx.HostU32("nw_out_off")
	if err != nil {
		return err
	}
	nBlocks := int(nb32)
	outOff := int64(outOff32)
	if nBlocks == 0 {
		return nil
	}
	slot, err := ctx.AllocU32(nwInSlotBytes / 4)
	if err != nil {
		return err
	}
	out, err := ctx.AllocU32(nwOutSlot / 4)
	if err != nil {
		return err
	}
	hPrev, err := ctx.AllocU32(nwBlock + 1)
	if err != nil {
		return err
	}
	hCur, err := ctx.AllocU32(nwBlock + 1)
	if err != nil {
		return err
	}
	const seqW, edgeW = nwSeqBytes / 4, nwEdgeBytes / 4
	seqA, seqB := slot[:seqW], slot[seqW:2*seqW]
	top, left := slot[2*seqW:2*seqW+edgeW], slot[2*seqW+edgeW:]
	outB, outR := out[:edgeW], out[edgeW:]
	nt := ctx.NumTasklets()
	for s := ctx.Me(); s < nBlocks; s += nt {
		if err := ctx.ReadU32(int64(s)*nwInSlotBytes, slot); err != nil {
			return err
		}

		// hPrev = top boundary (corner + row, B+1 values).
		copy(hPrev, top)
		for r := 0; r < nwBlock; r++ {
			a := int32(seqA[r])
			hCur[0] = left[r+1]
			for c := 0; c < nwBlock; c++ {
				sc := int32(nwMismatch)
				if a == int32(seqB[c]) {
					sc = nwMatch
				}
				best := int32(hPrev[c]) + sc
				if v := int32(hPrev[c+1]) + nwGap; v > best {
					best = v
				}
				if v := int32(hCur[c]) + nwGap; v > best {
					best = v
				}
				hCur[c+1] = uint32(best)
			}
			ctx.Tick(int64(nwBlock) * 10)
			outR[r+1] = hCur[nwBlock]
			hPrev, hCur = hCur, hPrev
		}
		outB[0] = left[nwBlock]
		copy(outB[1:], hPrev[1:])
		outR[0] = top[nwBlock]

		if err := ctx.WriteU32(out, outOff+int64(s)*nwOutSlot); err != nil {
			return err
		}
	}
	return nil
}

// nwData is NW's prepared dataset: the two sequences and the alignment
// score of the full CPU DP.
type nwData struct {
	seqA, seqB []int32
	score      int32
}

func prepareNW(p Params) *nwData {
	r := p.Rand()
	l := p.size(nwBaseLen)
	d := &nwData{seqA: make([]int32, l), seqB: make([]int32, l)}
	seqA, seqB := d.seqA, d.seqB
	for i := 0; i < l; i++ {
		seqA[i] = int32(r.Intn(4))
		seqB[i] = int32(r.Intn(4))
	}

	// Full DP with two rolling rows.
	prev := make([]int32, l+1)
	cur := make([]int32, l+1)
	for j := 0; j <= l; j++ {
		prev[j] = int32(j) * nwGap
	}
	for i := 1; i <= l; i++ {
		cur[0] = int32(i) * nwGap
		for j := 1; j <= l; j++ {
			sc := int32(nwMismatch)
			if seqA[i-1] == seqB[j-1] {
				sc = nwMatch
			}
			best := prev[j-1] + sc
			if v := prev[j] + nwGap; v > best {
				best = v
			}
			if v := cur[j-1] + nwGap; v > best {
				best = v
			}
			cur[j] = best
		}
		prev, cur = cur, prev
	}
	d.score = prev[l]
	return d
}

// RunNW aligns two random sequences block-diagonally and checks the final
// alignment score against the full CPU DP.
func RunNW(env sdk.Env, p Params) error {
	p = p.withDefaults()
	l := p.size(nwBaseLen)
	grid := l / nwBlock
	if grid*nwBlock != l {
		return fmt.Errorf("nw: length %d not divisible by block %d", l, nwBlock)
	}
	in := prepared("NW", p, prepareNW)
	seqA, seqB := in.seqA, in.seqB

	set, err := env.AllocSet(p.DPUs)
	if err != nil {
		return err
	}
	defer func() { _ = set.Free() }()
	if err := set.Load("prim/nw"); err != nil {
		return err
	}

	// Boundary grids: top[i][j] = H[i*B][j*B .. (j+1)*B] (B+1 values),
	// left[i][j] = H[i*B .. (i+1)*B][j*B].
	top := make([][][]int32, grid+1)
	left := make([][][]int32, grid)
	for i := range top {
		top[i] = make([][]int32, grid)
	}
	for i := range left {
		left[i] = make([][]int32, grid+1)
	}
	for j := 0; j < grid; j++ {
		row := make([]int32, nwBlock+1)
		for k := range row {
			row[k] = int32(j*nwBlock+k) * nwGap
		}
		top[0][j] = row
	}
	for i := 0; i < grid; i++ {
		col := make([]int32, nwBlock+1)
		for k := range col {
			col[k] = int32(i*nwBlock+k) * nwGap
		}
		left[i][0] = col
	}

	maxSlots := (grid + p.DPUs - 1) / p.DPUs
	outOff := int64(maxSlots) * nwInSlotBytes
	pieceBuf, err := env.AllocBuffer(nwPiece)
	if err != nil {
		return err
	}
	edge := make([]byte, nwEdgeBytes)
	lastNBlocks := make([]int, p.DPUs)
	for d := range lastNBlocks {
		lastNBlocks[d] = -1
	}

	tl := env.Timeline()
	if err := setU32Sym(set, "nw_out_off", uint32(outOff)); err != nil {
		return err
	}
	// writePieces issues one small write per nwPiece-sized piece.
	writePieces := func(dpu int, off int64, src []byte) error {
		for pos := 0; pos < len(src); pos += nwPiece {
			n := len(src) - pos
			if n > nwPiece {
				n = nwPiece
			}
			copy(pieceBuf.Data[:n], src[pos:pos+n])
			if err := set.CopyToMRAM(dpu, off+int64(pos), pieceBuf, n); err != nil {
				return err
			}
		}
		return nil
	}
	readPieces := func(dpu int, off int64, dst []byte) error {
		for pos := 0; pos < len(dst); pos += nwPiece {
			n := len(dst) - pos
			if n > nwPiece {
				n = nwPiece
			}
			if err := set.CopyFromMRAM(dpu, off+int64(pos), pieceBuf, n); err != nil {
				return err
			}
			copy(dst[pos:pos+n], pieceBuf.Data[:n])
		}
		return nil
	}
	putEdge := func(vals []int32) []byte {
		for k, v := range vals {
			putU32At(edge, k, uint32(v))
		}
		return edge
	}

	for diag := 0; diag <= 2*(grid-1); diag++ {
		type blk struct{ i, j, dpu, slot int }
		var blocks []blk
		slots := make([]int, p.DPUs)
		for i := 0; i < grid; i++ {
			j := diag - i
			if j < 0 || j >= grid {
				continue
			}
			d := i % p.DPUs
			blocks = append(blocks, blk{i: i, j: j, dpu: d, slot: slots[d]})
			slots[d]++
		}

		// CPU-DPU: push each block's inputs as small writes.
		err = sdk.Phase(tl, trace.PhaseCPUDPU, func() error {
			for d := 0; d < p.DPUs; d++ {
				if slots[d] != lastNBlocks[d] {
					if err := setU32SymAt(set, d, "nw_nblocks", uint32(slots[d])); err != nil {
						return err
					}
					lastNBlocks[d] = slots[d]
				}
			}
			for _, b := range blocks {
				base := int64(b.slot) * nwInSlotBytes
				seq := make([]byte, nwSeqBytes)
				for k := 0; k < nwBlock; k++ {
					putU32At(seq, k, uint32(seqA[b.i*nwBlock+k]))
				}
				if err := writePieces(b.dpu, base, seq); err != nil {
					return err
				}
				for k := 0; k < nwBlock; k++ {
					putU32At(seq, k, uint32(seqB[b.j*nwBlock+k]))
				}
				if err := writePieces(b.dpu, base+nwSeqBytes, seq); err != nil {
					return err
				}
				if err := writePieces(b.dpu, base+2*nwSeqBytes, putEdge(top[b.i][b.j])); err != nil {
					return err
				}
				if err := writePieces(b.dpu, base+2*nwSeqBytes+nwEdgeBytes, putEdge(left[b.i][b.j])); err != nil {
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

		// Inter-DPU: read each block's output boundaries as small reads.
		err = sdk.Phase(tl, trace.PhaseInterDPU, func() error {
			for _, b := range blocks {
				base := outOff + int64(b.slot)*nwOutSlot
				if err := readPieces(b.dpu, base, edge); err != nil {
					return err
				}
				bottom := make([]int32, nwBlock+1)
				for k := range bottom {
					bottom[k] = int32(u32At(edge, k))
				}
				if err := readPieces(b.dpu, base+nwEdgeBytes, edge); err != nil {
					return err
				}
				right := make([]int32, nwBlock+1)
				for k := range right {
					right[k] = int32(u32At(edge, k))
				}
				top[b.i+1][b.j] = bottom
				left[b.i][b.j+1] = right
			}
			return nil
		})
		if err != nil {
			return err
		}
	}

	if got := top[grid][grid-1][nwBlock]; got != in.score {
		return fmt.Errorf("nw: score = %d, want %d", got, in.score)
	}
	return nil
}
