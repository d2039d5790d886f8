package upmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/pim"
	"repro/internal/prim"
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
	var sym [4]uint32
	for i, name := range [...]string{"is_words", "is_nq", "is_q_off", "is_res_off"} {
		v, err := ctx.HostU32(name)
		if err != nil {
			return err
		}
		sym[i] = v
	}
	words, nq, qOff, resOff := sym[0], sym[1], sym[2], sym[3]

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
		s := partScanner{ctx: ctx, buf: buf, words: int(words)}
		nDocs, err := s.word()
		if err != nil {
			return err
		}
		for d := uint32(0); d < nDocs; d++ {
			docID, err := s.word()
			if err != nil {
				return err
			}
			termCount, err := s.word()
			if err != nil {
				return err
			}
			padded := (termCount + 1) &^ 1
			for t := uint32(0); t < padded; {
				run, err := s.take(padded - t)
				if err != nil {
					return err
				}
				for i, v := range run {
					if v == term && t+uint32(i) < termCount && hits < isMaxHits {
						res[2+2*hits], res[3+2*hits] = docID, t+uint32(i)
						hits++
					}
				}
				t += uint32(len(run))
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

// partScanner streams the partition index at MRAM offset 0 through a 2 KiB
// buffer. It reads each block when the scan first reaches it and never
// reads, nor hands out, a word at or past the partition's end.
type partScanner struct {
	ctx    *pim.Ctx
	buf    []uint32
	words  int // the partition's length (is_words)
	lo, hi int // buf holds words [lo, hi)
	pos    int // the next word
}

// take hands out the next words of the scan: n of them, or fewer where the
// block ends first.
func (s *partScanner) take(n uint32) ([]uint32, error) {
	if s.pos == s.hi {
		if s.pos >= s.words {
			return nil, errors.New("index-search: scan past partition end")
		}
		s.lo, s.hi = s.pos, min(s.pos+len(s.buf), s.words)
		if err := s.ctx.ReadU32(int64(s.lo)*4, s.buf[:s.hi-s.lo]); err != nil {
			return nil, err
		}
	}
	end := s.pos + int(min(n, uint32(s.hi-s.pos)))
	run := s.buf[s.pos-s.lo : end-s.lo]
	s.pos = end
	return run, nil
}

// word hands out the next word of the scan.
func (s *partScanner) word() (uint32, error) {
	run, err := s.take(1)
	if err != nil {
		return 0, err
	}
	return run[0], nil
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

// indexData is index search's prepared dataset: each DPU's partition image,
// the queries, and each query's hits as the host merges them.
type indexData struct {
	images  [][]uint32
	queries []uint32
	want    [][]Hit
}

// prepareIndexSearch builds the corpus, partitions its documents
// round-robin over the DPUs, serializes each partition and computes every
// query's expected hits: per DPU in order, the term's first isMaxHits
// positions in the DPU's documents, in document order (the DPU's scan and
// the host's merge order).
func prepareIndexSearch(p IndexSearchParams) *indexData {
	c := makeCorpus(p)
	r := rand.New(rand.NewSource(p.Seed + 7))
	queries := make([]uint32, p.Queries)
	for i := range queries {
		d := c.docs[r.Intn(len(c.docs))]
		queries[i] = d[r.Intn(len(d))]
	}

	partDocs := make([][]int, p.DPUs)
	for d := range c.docs {
		partDocs[d%p.DPUs] = append(partDocs[d%p.DPUs], d)
	}
	images := make([][]uint32, p.DPUs)
	postings := make([][]Hit, isVocab)
	for pd, list := range partDocs {
		img := []uint32{uint32(len(list))}
		var seen [isVocab]uint8
		for _, doc := range list {
			terms := c.docs[doc]
			img = append(img, uint32(doc), uint32(len(terms)))
			img = append(img, terms...)
			if len(terms)%2 == 1 {
				img = append(img, 0)
			}
			for pos, term := range terms {
				if seen[term] < isMaxHits {
					postings[term] = append(postings[term], Hit{Doc: uint32(doc), Pos: uint32(pos)})
					seen[term]++
				}
			}
		}
		if len(img)%2 == 1 {
			img = append(img, 0)
		}
		images[pd] = img
	}
	want := make([][]Hit, len(queries))
	for i, term := range queries {
		want[i] = postings[term]
	}
	return &indexData{images: images, queries: queries, want: want}
}

// RunIndexSearch executes the benchmark configuration (445 requests in
// batches of 128) and verifies every hit list against the host's
// reference, which prepareIndexSearch computes once per params.
func RunIndexSearch(env sdk.Env, p IndexSearchParams) error {
	p = p.withDefaults()
	in := prim.Prepared("upmem/index-search", p, prepareIndexSearch)

	set, err := env.AllocSet(p.DPUs)
	if err != nil {
		return err
	}
	defer func() { _ = set.Free() }()
	if err := set.Load("upmem/index-search"); err != nil {
		return err
	}

	maxWords := 0
	for _, img := range in.images {
		maxWords = max(maxWords, len(img))
	}
	qOff := prim.PadTo(maxWords*4, 8)
	resOff := qOff + prim.PadTo(p.BatchSize*4, 8)

	tl := env.Timeline()
	// Distribute the index (CPU-DPU), one DPU at a time.
	err = sdk.Phase(tl, trace.PhaseCPUDPU, func() error {
		for d, img := range in.images {
			buf, err := prim.AllocU32(env, img)
			if err != nil {
				return err
			}
			if err := set.PrepareXfer(d, buf); err != nil {
				return err
			}
			if err := set.PushXfer(sdk.ToDPU, 0, len(img)*4); err != nil {
				return err
			}
			for _, sym := range [...]struct {
				name string
				v    int
			}{{"is_words", len(img)}, {"is_q_off", qOff}, {"is_res_off", resOff}} {
				if err := prim.SetU32SymAt(set, d, sym.name, uint32(sym.v)); err != nil {
					return err
				}
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
	regionBytes := p.BatchSize * isResultSize
	resBuf, err := env.AllocBuffer(p.DPUs * regionBytes)
	if err != nil {
		return err
	}

	for lo := 0; lo < p.Queries; lo += p.BatchSize {
		batch := in.queries[lo:min(lo+p.BatchSize, p.Queries)]
		err = sdk.Phase(tl, trace.PhaseCPUDPU, func() error {
			for i, term := range batch {
				binary.LittleEndian.PutUint32(qBuf.Data[4*i:], term)
			}
			if err := prim.PushSlices(set, sdk.ToDPU, int64(qOff), qBuf, 0, prim.PadTo(len(batch)*4, 8)); err != nil {
				return err
			}
			return prim.SetU32Sym(set, "is_nq", uint32(len(batch)))
		})
		if err != nil {
			return err
		}

		if err := sdk.Phase(tl, trace.PhaseDPU, set.Launch); err != nil {
			return err
		}

		err = sdk.Phase(tl, trace.PhaseDPUCPU, func() error {
			return prim.PushSlices(set, sdk.FromDPU, int64(resOff), resBuf, regionBytes, len(batch)*isResultSize)
		})
		if err != nil {
			return err
		}

		// Merge each query's hits in DPU order and compare.
		for q := range batch {
			var got []Hit
			for d := 0; d < p.DPUs; d++ {
				block := resBuf.Data[d*regionBytes+q*isResultSize:]
				for h := range binary.LittleEndian.Uint32(block) {
					got = append(got, Hit{
						Doc: binary.LittleEndian.Uint32(block[4*(2+2*h):]),
						Pos: binary.LittleEndian.Uint32(block[4*(3+2*h):]),
					})
				}
			}
			want := in.want[lo+q]
			if len(got) != len(want) {
				return fmt.Errorf("index-search: query %d has %d hits, want %d", lo+q, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					return fmt.Errorf("index-search: query %d hit %d = %+v, want %+v", lo+q, i, got[i], want[i])
				}
			}
		}
	}
	return nil
}

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
