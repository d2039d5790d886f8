package upmem

import (
	"encoding/binary"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/pim"
)

// Kernel-level tests of index search: the kernel runs directly on a bare
// one-DPU rank (no SDK, no virtualization) on partition layouts the
// benchmark's corpus never produces.

// indexLayout is one partition image at MRAM offset 0 and the query batch
// scanned over it.
type indexLayout struct {
	img     []uint32
	words   int // is_words: how much of img the kernel may read
	queries []uint32
}

// partitionImage serializes docs as RunIndexSearch does: [nDocs, then per
// doc docID, termCount, terms, a pad word after an odd count], padded to
// an even length. Doc i has ID 100+i.
func partitionImage(docs ...[]uint32) []uint32 {
	img := []uint32{uint32(len(docs))}
	for i, terms := range docs {
		img = append(img, uint32(100+i), uint32(len(terms)))
		img = append(img, terms...)
		if len(terms)%2 == 1 {
			img = append(img, 0)
		}
	}
	if len(img)%2 == 1 {
		img = append(img, 0)
	}
	return img
}

// terms returns n terms cycling through 0..10 from start.
func terms(n, start int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32((start + i) % 11)
	}
	return out
}

// repeated returns n copies of term.
func repeated(n int, term uint32) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = term
	}
	return out
}

// wantHits is the host's reference scan of docs for term: every position in
// doc order, at most isMaxHits.
func wantHits(docs [][]uint32, term uint32) []Hit {
	var hits []Hit
	for i, terms := range docs {
		for pos, v := range terms {
			if v == term && len(hits) < isMaxHits {
				hits = append(hits, Hit{Doc: uint32(100 + i), Pos: uint32(pos)})
			}
		}
	}
	return hits
}

// launchIndex writes l to a fresh rank, launches the index kernel on DPU 0
// and returns each query's hit list.
func launchIndex(t *testing.T, l indexLayout) ([][]Hit, pim.LaunchResult, error) {
	t.Helper()
	r := pim.NewRank(0, pim.RankConfig{DPUs: 1, MRAMBytes: 4 << 20}, cost.Default())
	if err := r.LoadProgram(0, indexKernel()); err != nil {
		t.Fatal(err)
	}
	qOff := (len(l.img)*4 + 7) &^ 7
	resOff := qOff + (len(l.queries)*4+7)&^7
	write := func(off int, words []uint32) {
		b := make([]byte, (len(words)*4+7)&^7)
		for i, w := range words {
			binary.LittleEndian.PutUint32(b[4*i:], w)
		}
		if err := r.WriteDPU(0, int64(off), b); err != nil {
			t.Fatal(err)
		}
	}
	write(0, l.img)
	write(qOff, l.queries)
	for _, sym := range []struct {
		name string
		v    int
	}{{"is_words", l.words}, {"is_nq", len(l.queries)}, {"is_q_off", qOff}, {"is_res_off", resOff}} {
		if err := r.SymbolWrite(0, sym.name, 0, binary.LittleEndian.AppendUint32(nil, uint32(sym.v))); err != nil {
			t.Fatal(err)
		}
	}
	res, err := r.Launch([]int{0})
	if err != nil {
		return nil, res, err
	}
	out := make([]byte, len(l.queries)*isResultSize)
	if err := r.ReadDPU(0, int64(resOff), out); err != nil {
		t.Fatal(err)
	}
	hits := make([][]Hit, len(l.queries))
	for q := range hits {
		block := out[q*isResultSize:]
		for h := range binary.LittleEndian.Uint32(block) {
			hits[q] = append(hits[q], Hit{
				Doc: binary.LittleEndian.Uint32(block[4*(2+2*h):]),
				Pos: binary.LittleEndian.Uint32(block[4*(3+2*h):]),
			})
		}
	}
	return hits, res, nil
}

// TestIndexKernelEdgeLayouts runs the kernel on well-formed partitions at
// the edges of its 2 KiB blocks and of its result block. Every hit list
// must equal the host's reference scan, and the DPU time and instruction
// count must equal those of the per-word reader the block scanner
// replaced, recorded from it: the scanner moves no DMA and no Tick.
func TestIndexKernelEdgeLayouts(t *testing.T) {
	queries := []uint32{0, 5, 10, 99}
	for _, tc := range []struct {
		name  string
		docs  [][]uint32
		dur   time.Duration
		instr int64
	}{
		{name: "no docs", dur: 4834, instr: 0},
		{name: "doc without terms", docs: [][]uint32{{}, terms(4, 0)}, dur: 5155, instr: 48},
		{name: "odd term counts", docs: [][]uint32{terms(3, 0), terms(5, 4), terms(1, 10)}, dur: 5657, instr: 144},
		// Doc 1's header is words 511 and 512: doc 0 fills words 1..510
		// (507 terms and a pad word).
		{name: "header across blocks", docs: [][]uint32{terms(507, 0), terms(9, 3)}, dur: 35322, instr: 6216},
		{name: "terms across blocks", docs: [][]uint32{terms(600, 0), terms(1100, 7)}, dur: 104459, instr: 20400},
		// 1 + 2 + 508 terms + the image's pad word: exactly one block.
		{name: "one full block", docs: [][]uint32{terms(508, 2)}, dur: 33907, instr: 6096},
		{name: "more than isMaxHits", docs: [][]uint32{repeated(40, 5), terms(30, 0), repeated(50, 5)}, dur: 11828, instr: 1440},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img := partitionImage(tc.docs...)
			got, res, err := launchIndex(t, indexLayout{img: img, words: len(img), queries: queries})
			if err != nil {
				t.Fatal(err)
			}
			for q, term := range queries {
				if want := wantHits(tc.docs, term); !slices.Equal(got[q], want) {
					t.Errorf("query %d: %d hits %v, want %d %v", term, len(got[q]), got[q], len(want), want)
				}
			}
			if res.Duration != tc.dur || res.Instructions != tc.instr {
				t.Errorf("launch took %v and %d instructions, want %v and %d", res.Duration, res.Instructions, tc.dur, tc.instr)
			}
		})
	}
}

// TestIndexKernelScanPastPartition: a partition's only doc claims six
// terms, but is_words ends the partition after its first. The scan must
// fail the launch rather than read words past is_words; a reader that
// checks the bound only at a block start returns the buffer's stale words
// as terms 1-5, and the launch succeeds with one hit.
func TestIndexKernelScanPastPartition(t *testing.T) {
	l := indexLayout{img: []uint32{1, 100, 6, 7}, words: 4, queries: []uint32{7}}
	hits, _, err := launchIndex(t, l)
	if err == nil || !strings.HasPrefix(err.Error(), "dpu 0: ") || !strings.Contains(err.Error(), "scan past partition end") {
		t.Fatalf("launch = %v (hits %v), want a scan past partition end naming dpu 0", err, hits)
	}
	if errors.Is(err, pim.ErrDPUFault) {
		t.Errorf("launch = %v: the kernel's own error, not a fault", err)
	}
}
