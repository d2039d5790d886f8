package prim

import (
	"fmt"

	"repro/internal/pim"
	"repro/internal/sdk"
	"repro/internal/trace"
)

// BFS: level-synchronous breadth-first search over a CSR graph, vertices
// partitioned across DPUs. Every level requires a frontier broadcast
// (write-to-rank) and a next-frontier gather (read-from-rank) per DPU: the
// synchronization handshakes responsible for the 3x Inter-DPU overhead the
// paper measures (Section 5.2, fourth observation). The CSR slices are
// distributed serially like SpMV.

const (
	bfsBaseVerts = 192000
	bfsAvgDegree = 8
)

// bfsKernel layout per DPU: local rowptr at 0, colidx at bfs_col_off,
// frontier bitmap (global, bfs_words u64 words) at bfs_front_off, visited
// bitmap at bfs_vis_off, next-frontier bitmap at bfs_next_off.
func bfsKernel() *pim.Kernel {
	return &pim.Kernel{
		Name:      "prim/bfs",
		Tasklets:  DefaultTasklets,
		CodeBytes: 10 << 10,
		Symbols: []pim.Symbol{
			{Name: "bfs_verts", Bytes: 4},
			{Name: "bfs_base", Bytes: 4},
			{Name: "bfs_words", Bytes: 4},
			{Name: "bfs_col_off", Bytes: 4},
			{Name: "bfs_front_off", Bytes: 4},
			{Name: "bfs_vis_off", Bytes: 4},
			{Name: "bfs_next_off", Bytes: 4},
		},
		Run: runBFSKernel,
	}
}

func runBFSKernel(ctx *pim.Ctx) error {
	if ctx.Me() == 0 {
		ctx.ResetHeap()
	}
	ctx.Barrier()
	get := func(name string) (int, error) {
		v, err := ctx.HostU32(name)
		return int(v), err
	}
	verts, err := get("bfs_verts")
	if err != nil {
		return err
	}
	base, err := get("bfs_base")
	if err != nil {
		return err
	}
	words, err := get("bfs_words")
	if err != nil {
		return err
	}
	colOff, err := get("bfs_col_off")
	if err != nil {
		return err
	}
	frontOff, err := get("bfs_front_off")
	if err != nil {
		return err
	}
	visOff, err := get("bfs_vis_off")
	if err != nil {
		return err
	}
	nextOff, err := get("bfs_next_off")
	if err != nil {
		return err
	}

	// The visited and next-frontier bitmaps stay WRAM-resident for
	// the launch (random access per neighbor); only the DPU's own
	// slice of the frontier is needed, loaded with 8-byte slack for
	// alignment. Bit v of a bitmap is bit v%64 of its word v/64.
	vis, err := ctx.SharedU64("bfs_vis", words)
	if err != nil {
		return err
	}
	next, err := ctx.SharedU64("bfs_next", words)
	if err != nil {
		return err
	}
	frontStart := base / 8
	frontAligned := frontStart &^ 7
	frontSlack := frontStart - frontAligned
	ownBytes := (verts + 7) / 8
	front, err := ctx.SharedU64("bfs_front", (frontSlack+ownBytes+7)/8)
	if err != nil {
		return err
	}
	if ctx.Me() == 0 {
		if err := ctx.ReadU64(int64(visOff), vis); err != nil {
			return err
		}
		if err := ctx.ReadU64(int64(frontOff)+int64(frontAligned), front); err != nil {
			return err
		}
		clear(next)
	}
	ctx.Barrier()

	bit := func(bm []uint64, v int) bool { return bm[v/64]&(1<<(uint(v)%64)) != 0 }

	rp, err := ctx.AllocU32(4)
	if err != nil {
		return err
	}
	nbr, err := ctx.AllocU32(128)
	if err != nil {
		return err
	}
	nt := ctx.NumTasklets()
	for v := ctx.Me(); v < verts; v += nt {
		// v is DPU-local; the frontier slice was loaded from frontAligned.
		if !bit(front, frontSlack*8+v) {
			continue
		}
		if err := ctx.ReadU32(int64(v&^1)*4, rp); err != nil {
			return err
		}
		idx := v & 1
		lo, hi := int(rp[idx]), int(rp[idx+1])
		for pos := lo; pos < hi; {
			cnt := min(hi-pos, 126)
			shift := pos & 1
			n := (cnt + shift + 1) &^ 1
			if err := ctx.ReadU32(int64(colOff)+int64(pos&^1)*4, nbr[:n]); err != nil {
				return err
			}
			for _, w := range nbr[shift : shift+cnt] {
				if !bit(vis, int(w)) {
					ctx.Lock()
					next[w/64] |= 1 << (w % 64)
					ctx.Unlock()
				}
			}
			ctx.Tick(int64(cnt) * 7)
			pos += cnt
		}
	}
	ctx.Barrier()
	if ctx.Me() == 0 {
		return ctx.WriteU64(next, int64(nextOff))
	}
	return nil
}

// bfsData is BFS's prepared dataset: each DPU's CSR slice of the graph
// (row pointers and neighbour lists, indexed by DPU), the longest slice's
// neighbour count padded to 8 bytes, and the CPU reference's level of
// every vertex.
type bfsData struct {
	ptrs, cols [][]uint32
	maxNNZPad  int
	levels     []int
}

func prepareBFS(p Params) *bfsData {
	r := p.Rand()
	n := p.size(bfsBaseVerts)
	perVerts := n / p.DPUs

	// Random graph plus a Hamiltonian-ish chain for connectivity.
	adj := make([][]uint32, n)
	for v := 0; v < n-1; v += 7 {
		w := v + 7
		if w >= n {
			w = n - 1
		}
		adj[v] = append(adj[v], uint32(w))
	}
	for e := 0; e < n*bfsAvgDegree; e++ {
		v, w := r.Intn(n), r.Intn(n)
		adj[v] = append(adj[v], uint32(w))
	}

	// CPU reference levels.
	want := make([]int, n)
	for i := range want {
		want[i] = -1
	}
	want[0] = 0
	queue := []int{0}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range adj[v] {
			if want[w] == -1 {
				want[w] = want[v] + 1
				queue = append(queue, int(w))
			}
		}
	}

	// Per-DPU CSR slices, laid out uniformly (padded to the largest slice)
	// so the geometry broadcasts once.
	d := &bfsData{ptrs: make([][]uint32, p.DPUs), cols: make([][]uint32, p.DPUs), maxNNZPad: 2, levels: want}
	for dpu := range d.ptrs {
		localPtr := make([]uint32, perVerts+2)
		var cols []uint32
		for i := 0; i < perVerts; i++ {
			localPtr[i] = uint32(len(cols))
			cols = append(cols, adj[dpu*perVerts+i]...)
		}
		localPtr[perVerts] = uint32(len(cols))
		d.ptrs[dpu], d.cols[dpu] = localPtr, cols
		if nnzPad := padTo(len(cols), 2); nnzPad > d.maxNNZPad {
			d.maxNNZPad = nnzPad
		}
	}
	return d
}

// RunBFS executes BFS from vertex 0 and checks every vertex level.
func RunBFS(env sdk.Env, p Params) error {
	p = p.withDefaults()
	n := p.size(bfsBaseVerts)
	if n%p.DPUs != 0 {
		return fmt.Errorf("bfs: %d vertices not divisible by %d DPUs", n, p.DPUs)
	}
	perVerts := n / p.DPUs
	in := prepared("BFS", p, prepareBFS)

	set, err := env.AllocSet(p.DPUs)
	if err != nil {
		return err
	}
	defer func() { _ = set.Free() }()
	if err := set.Load("prim/bfs"); err != nil {
		return err
	}

	words := padTo(n, 64) / 64
	bmBytes := words * 8

	// Every DPU's slice sits at the same offsets, so the geometry
	// broadcasts once. bfs_base differs per DPU and is the only per-DPU
	// symbol.
	ptrBytes := padTo((perVerts+2)*4, 8)
	colOff := int64(ptrBytes)
	frontOff := colOff + int64(in.maxNNZPad*4)
	visOff := frontOff + int64(bmBytes)
	nextOff := visOff + int64(bmBytes)

	tl := env.Timeline()
	// CPU-DPU: serial per-DPU CSR slice distribution (like SpMV).
	err = sdk.Phase(tl, trace.PhaseCPUDPU, func() error {
		if err := setU32Sym(set, "bfs_verts", uint32(perVerts)); err != nil {
			return err
		}
		if err := setU32Sym(set, "bfs_words", uint32(words)); err != nil {
			return err
		}
		if err := setU32Sym(set, "bfs_col_off", uint32(colOff)); err != nil {
			return err
		}
		if err := setU32Sym(set, "bfs_front_off", uint32(frontOff)); err != nil {
			return err
		}
		if err := setU32Sym(set, "bfs_vis_off", uint32(visOff)); err != nil {
			return err
		}
		if err := setU32Sym(set, "bfs_next_off", uint32(nextOff)); err != nil {
			return err
		}
		for d := 0; d < p.DPUs; d++ {
			if err := setU32SymAt(set, d, "bfs_base", uint32(d*perVerts)); err != nil {
				return err
			}
			ptrBuf, err := allocU32(env, in.ptrs[d])
			if err != nil {
				return err
			}
			if err := set.CopyToMRAM(d, 0, ptrBuf, ptrBytes); err != nil {
				return err
			}
			if cols := in.cols[d]; len(cols) > 0 {
				// The full slice expression makes append copy: it must not
				// write past the prepared slice's length.
				colBuf, err := allocU32(env, append(cols[:len(cols):len(cols)], 0))
				if err != nil {
					return err
				}
				if err := set.CopyToMRAM(d, colOff, colBuf, padTo(len(cols), 2)*4); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	levels := make([]int, n)
	for i := range levels {
		levels[i] = -1
	}
	levels[0] = 0
	front := make([]byte, bmBytes)
	vis := make([]byte, bmBytes)
	front[0] |= 1
	vis[0] |= 1

	frontBuf, err := env.AllocBuffer(bmBytes)
	if err != nil {
		return err
	}
	visBuf, err := env.AllocBuffer(bmBytes)
	if err != nil {
		return err
	}
	nextBuf, err := env.AllocBuffer(p.DPUs * bmBytes)
	if err != nil {
		return err
	}

	for level := 1; ; level++ {
		// Inter-DPU: broadcast frontier + visited with parallel pushes,
		// launch, gather and merge the per-DPU next frontiers.
		err = sdk.Phase(tl, trace.PhaseInterDPU, func() error {
			copy(frontBuf.Data, front)
			copy(visBuf.Data, vis)
			if err := pushSlices(set, sdk.ToDPU, frontOff, frontBuf, 0, bmBytes); err != nil {
				return err
			}
			return pushSlices(set, sdk.ToDPU, visOff, visBuf, 0, bmBytes)
		})
		if err != nil {
			return err
		}
		if err := sdk.Phase(tl, trace.PhaseDPU, set.Launch); err != nil {
			return err
		}
		next := make([]byte, bmBytes)
		err = sdk.Phase(tl, trace.PhaseInterDPU, func() error {
			if err := pushSlices(set, sdk.FromDPU, nextOff, nextBuf, bmBytes, bmBytes); err != nil {
				return err
			}
			for d := 0; d < p.DPUs; d++ {
				chunk := nextBuf.Data[d*bmBytes : (d+1)*bmBytes]
				for i := range next {
					next[i] |= chunk[i]
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		// Strip visited, record levels.
		any := false
		for v := 0; v < n; v++ {
			if next[v/8]&(1<<(uint(v)%8)) != 0 && levels[v] == -1 {
				levels[v] = level
				vis[v/8] |= 1 << (uint(v) % 8)
				any = true
			} else {
				next[v/8] &^= 1 << (uint(v) % 8)
			}
		}
		if !any {
			break
		}
		front = next
	}

	for v, want := range in.levels {
		if levels[v] != want {
			return fmt.Errorf("bfs: level[%d] = %d, want %d", v, levels[v], want)
		}
	}
	return nil
}
