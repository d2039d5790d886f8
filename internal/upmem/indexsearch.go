package upmem

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"repro/internal/pim"
	"repro/internal/sdk"
	"repro/internal/trace"
)

// Index Search (Section 5.3.2): an index of Wikipedia documents is
// distributed across DPUs; query batches of 128 are broadcast and every DPU
// scans its document partition for the query term, returning document IDs
// and positions. The paper's configuration — 445 requests over 4305
// documents in 4 batches of 128 — is kept; the corpus itself is synthetic
// and scaled down (DESIGN.md).

// IndexSearchParams configures one run.
type IndexSearchParams struct {
	// DPUs is the DPU count (Fig. 10 sweeps 1..128).
	DPUs int
	// Docs is the corpus size (4305 in the paper's benchmark).
	Docs int
	// TermsPerDoc is the average document length (scaled down from the
	// 63 MB corpus).
	TermsPerDoc int
	// Queries is the request count (445), sent in batches of BatchSize
	// (128).
	Queries   int
	BatchSize int
	// Seed makes the corpus deterministic; 0 selects 1.
	Seed int64
}

func (p IndexSearchParams) withDefaults() IndexSearchParams {
	if p.DPUs == 0 {
		p.DPUs = 60
	}
	if p.Docs == 0 {
		p.Docs = 4305
	}
	if p.TermsPerDoc == 0 {
		p.TermsPerDoc = 180
	}
	if p.Queries == 0 {
		p.Queries = 445
	}
	if p.BatchSize == 0 {
		p.BatchSize = 128
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

const (
	isVocab      = 8192
	isMaxHits    = 64
	isHitWords   = 2 * isMaxHits
	isResultSize = (2 + isHitWords) * 4 // count, pad, (doc,pos) pairs (8-byte aligned)
)

// Hit is one query match: a document and the term position inside it.
type Hit struct {
	Doc uint32
	Pos uint32
}

// indexKernel layout per DPU: the partition index at 0 — [nDocs, then per
// doc: docID, termCount, terms... (padded)] — queries at is_q_off (batch of
// is_nq u32 terms), results at is_res_off (one result block per query).
func indexKernel() *pim.Kernel {
	return &pim.Kernel{
		Name:      "upmem/index-search",
		Tasklets:  16,
		CodeBytes: 10 << 10,
		Symbols: []pim.Symbol{
			{Name: "is_words", Bytes: 4},
			{Name: "is_nq", Bytes: 4},
			{Name: "is_q_off", Bytes: 4},
			{Name: "is_res_off", Bytes: 4},
		},
		Run: runIndexKernel,
	}
}

func runIndexKernel(ctx *pim.Ctx) error {
	if ctx.Me() == 0 {
		ctx.ResetHeap()
	}
	ctx.Barrier()
	get := func(name string) (uint32, error) { return ctx.HostU32(name) }
	words, err := get("is_words")
	if err != nil {
		return err
	}
	nq, err := get("is_nq")
	if err != nil {
		return err
	}
	qOff, err := get("is_q_off")
	if err != nil {
		return err
	}
	resOff, err := get("is_res_off")
	if err != nil {
		return err
	}

	// Queries are small; share them in WRAM, padded to 8 bytes.
	queries, err := ctx.SharedU32("is_queries", (int(nq)+1)&^1)
	if err != nil {
		return err
	}
	if ctx.Me() == 0 {
		if err := ctx.ReadU32(int64(qOff), queries[:nq]); err != nil {
			return err
		}
	}
	ctx.Barrier()

	buf, err := ctx.AllocU32(512)
	if err != nil {
		return err
	}
	res, err := ctx.AllocU32(isResultSize / 4)
	if err != nil {
		return err
	}
	// Tasklets split the query batch; each scans the whole
	// partition for its queries.
	for q := ctx.Me(); q < int(nq); q += ctx.NumTasklets() {
		term := queries[q]
		hits := 0
		clear(res)
		// Stream the partition — [nDocs, {docID, termCount,
		// terms..., pad}...] — in 2 KB blocks, each read when the
		// scan reaches it.
		idx := 0
		next := func() (uint32, error) {
			i := idx % len(buf)
			if i == 0 {
				if idx >= int(words) {
					return 0, fmt.Errorf("index-search: scan past partition end")
				}
				if err := ctx.ReadU32(int64(idx)*4, buf[:min(len(buf), int(words)-idx)]); err != nil {
					return 0, err
				}
			}
			idx++
			return buf[i], nil
		}
		nDocs, err := next()
		if err != nil {
			return err
		}
		for d := uint32(0); d < nDocs; d++ {
			docID, err := next()
			if err != nil {
				return err
			}
			termCount, err := next()
			if err != nil {
				return err
			}
			padded := (termCount + 1) &^ 1
			for t := uint32(0); t < padded; t++ {
				v, err := next()
				if err != nil {
					return err
				}
				if t < termCount && v == term && hits < isMaxHits {
					res[2+2*hits], res[3+2*hits] = docID, t
					hits++
				}
			}
			ctx.Tick(int64(padded) * 3)
		}
		res[0] = uint32(hits)
		if err := ctx.WriteU32(res, int64(resOff)+int64(q)*isResultSize); err != nil {
			return err
		}
	}
	return nil
}

// corpus holds the synthetic Wikipedia subset.
type corpus struct {
	docs [][]uint32 // term IDs per document
}

func makeCorpus(p IndexSearchParams) corpus {
	r := rand.New(rand.NewSource(p.Seed))
	docs := make([][]uint32, p.Docs)
	for d := range docs {
		n := p.TermsPerDoc/2 + r.Intn(p.TermsPerDoc)
		terms := make([]uint32, n)
		for i := range terms {
			// Zipf-ish skew: square the uniform draw.
			u := r.Float64()
			terms[i] = uint32(u * u * float64(isVocab))
		}
		docs[d] = terms
	}
	return corpus{docs: docs}
}

// RunIndexSearch executes the benchmark configuration (445 requests in
// batches of 128) and verifies every hit list against a CPU scan.
func RunIndexSearch(env sdk.Env, p IndexSearchParams) error {
	p = p.withDefaults()
	c := makeCorpus(p)
	r := rand.New(rand.NewSource(p.Seed + 7))

	queries := make([]uint32, p.Queries)
	for i := range queries {
		d := c.docs[r.Intn(len(c.docs))]
		queries[i] = d[r.Intn(len(d))]
	}

	set, err := env.AllocSet(p.DPUs)
	if err != nil {
		return err
	}
	defer func() { _ = set.Free() }()
	if err := set.Load("upmem/index-search"); err != nil {
		return err
	}

	// Partition documents round-robin and serialize each partition.
	partDocs := make([][]int, p.DPUs)
	for d := range c.docs {
		partDocs[d%p.DPUs] = append(partDocs[d%p.DPUs], d)
	}
	images := make([][]uint32, p.DPUs)
	maxWords := 0
	for pd, list := range partDocs {
		img := []uint32{uint32(len(list))}
		for _, doc := range list {
			terms := c.docs[doc]
			img = append(img, uint32(doc), uint32(len(terms)))
			img = append(img, terms...)
			if len(terms)%2 == 1 {
				img = append(img, 0)
			}
		}
		if len(img)%2 == 1 {
			img = append(img, 0)
		}
		images[pd] = img
		if len(img) > maxWords {
			maxWords = len(img)
		}
	}
	qOff := padTo8(maxWords * 4)
	resOff := qOff + padTo8(p.BatchSize*4)

	tl := env.Timeline()
	// Build + distribute the index (CPU-DPU).
	err = sdk.Phase(tl, trace.PhaseCPUDPU, func() error {
		for d := 0; d < p.DPUs; d++ {
			img := images[d]
			buf, err := env.AllocBuffer(len(img) * 4)
			if err != nil {
				return err
			}
			for i, w := range img {
				binary.LittleEndian.PutUint32(buf.Data[4*i:], w)
			}
			if err := set.PrepareXfer(d, buf); err != nil {
				return err
			}
			if err := set.PushXfer(sdk.ToDPU, 0, len(img)*4); err != nil {
				return err
			}
			if err := setU32At(set, d, "is_words", uint32(len(img))); err != nil {
				return err
			}
			if err := setU32At(set, d, "is_q_off", uint32(qOff)); err != nil {
				return err
			}
			if err := setU32At(set, d, "is_res_off", uint32(resOff)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	qBuf, err := env.AllocBuffer(p.BatchSize * 4)
	if err != nil {
		return err
	}
	// One result region per DPU so a single parallel push retrieves the
	// whole batch's results.
	resBuf, err := env.AllocBuffer(p.DPUs * p.BatchSize * isResultSize)
	if err != nil {
		return err
	}

	for batch := 0; batch*p.BatchSize < p.Queries; batch++ {
		lo := batch * p.BatchSize
		hi := lo + p.BatchSize
		if hi > p.Queries {
			hi = p.Queries
		}
		nq := hi - lo

		err = sdk.Phase(tl, trace.PhaseCPUDPU, func() error {
			for i := 0; i < nq; i++ {
				binary.LittleEndian.PutUint32(qBuf.Data[4*i:], queries[lo+i])
			}
			for d := 0; d < p.DPUs; d++ {
				if err := set.PrepareXfer(d, qBuf); err != nil {
					return err
				}
			}
			if err := set.PushXfer(sdk.ToDPU, int64(qOff), padTo8(nq*4)); err != nil {
				return err
			}
			return broadcastU32(set, "is_nq", uint32(nq))
		})
		if err != nil {
			return err
		}

		if err := sdk.Phase(tl, trace.PhaseDPU, set.Launch); err != nil {
			return err
		}

		got := make([][]Hit, nq)
		err = sdk.Phase(tl, trace.PhaseDPUCPU, func() error {
			regionBytes := p.BatchSize * isResultSize
			for d := 0; d < p.DPUs; d++ {
				sub := resBuf
				sub.GPA += uint64(d * regionBytes)
				sub.Data = resBuf.Data[d*regionBytes : (d+1)*regionBytes]
				if err := set.PrepareXfer(d, sub); err != nil {
					return err
				}
			}
			if err := set.PushXfer(sdk.FromDPU, int64(resOff), nq*isResultSize); err != nil {
				return err
			}
			for d := 0; d < p.DPUs; d++ {
				for q := 0; q < nq; q++ {
					block := resBuf.Data[d*regionBytes+q*isResultSize:]
					hits := binary.LittleEndian.Uint32(block)
					for h := uint32(0); h < hits; h++ {
						got[q] = append(got[q], Hit{
							Doc: binary.LittleEndian.Uint32(block[4*(2+2*h):]),
							Pos: binary.LittleEndian.Uint32(block[4*(3+2*h):]),
						})
					}
				}
			}
			return nil
		})
		if err != nil {
			return err
		}

		// CPU reference scan, per DPU order then doc order (mirroring the
		// DPU's partition scan and the host's merge order).
		for q := 0; q < nq; q++ {
			var want []Hit
			for d := 0; d < p.DPUs; d++ {
				cnt := 0
				for _, doc := range partDocs[d] {
					for pos, term := range c.docs[doc] {
						if term == queries[lo+q] && cnt < isMaxHits {
							want = append(want, Hit{Doc: uint32(doc), Pos: uint32(pos)})
							cnt++
						}
					}
				}
			}
			if len(got[q]) != len(want) {
				return fmt.Errorf("index-search: query %d has %d hits, want %d", lo+q, len(got[q]), len(want))
			}
			for i := range want {
				if got[q][i] != want[i] {
					return fmt.Errorf("index-search: query %d hit %d = %+v, want %+v", lo+q, i, got[q][i], want[i])
				}
			}
		}
	}
	return nil
}

// setU32At writes a uint32 host symbol on one DPU.
func setU32At(set *sdk.Set, dpu int, name string, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return set.CopyToSym(dpu, name, 0, b[:])
}

// padTo8 rounds up to 8 bytes.
func padTo8(n int) int { return (n + 7) &^ 7 }

// Kernels returns the microbenchmark DPU binaries. As in prim.Kernels,
// each Run is a named function, so the Ctx calls in it are inlined.
func Kernels() []*pim.Kernel {
	return []*pim.Kernel{checksumKernel(), indexKernel()}
}

// Register installs the microbenchmark binaries into a registry.
func Register(reg *pim.Registry) error {
	for _, k := range Kernels() {
		if err := reg.Register(k); err != nil {
			return err
		}
	}
	return nil
}
