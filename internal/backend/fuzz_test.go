package backend

import (
	"errors"
	"testing"

	"repro/internal/hostmem"
	"repro/internal/simtime"
	"repro/internal/virtio"
)

// matrixSeed is one transfer-matrix encoding for the decode-path fuzzer:
// the matrix-metadata row count plus the five guest-controlled row metadata
// words and the page-buffer word count, and whether the chain is a
// broadcast (OpWriteRankBcast) with the given header DPU mask. The chain
// shape itself stays valid (one row-metadata/page-buffer descriptor pair),
// so the fuzzer concentrates on the field validation that used to be
// missing.
type matrixSeed struct {
	nRows    uint64
	dpu      uint64
	size     uint64
	mramOff  uint64
	nPages   uint64
	firstOff uint64
	pmWords  uint16
	bcast    bool
	mask     uint64
}

// deserializeSeeds is the shared corpus: valid rows plus the adversarial
// encodings the decoder must reject with an error, never a panic, an
// out-of-bounds slice or an unbounded allocation.
func deserializeSeeds() (valid []matrixSeed, adversarial []matrixSeed) {
	valid = []matrixSeed{
		{nRows: 1, size: 4096, nPages: 1, pmWords: 1},
		{nRows: 1, size: 8192, nPages: 2, pmWords: 2},
		{nRows: 1, size: 100, nPages: 1, firstOff: 96, pmWords: 1},
		// Broadcasts to DPUs {0, 1, 3} and to every DPU of the test rank.
		{nRows: 1, size: 4096, nPages: 1, pmWords: 1, bcast: true, mask: 0b1011},
		{nRows: 1, size: 100, nPages: 1, firstOff: 96, pmWords: 1, bcast: true, mask: 0b1111},
	}
	adversarial = []matrixSeed{
		// First-page offset at/past the page end: the historical negative
		// segment that panicked the segment walk.
		{nRows: 1, size: 4096, nPages: 2, firstOff: hostmem.PageSize, pmWords: 2},
		{nRows: 1, size: 4096, nPages: 2, firstOff: hostmem.PageSize + 8, pmWords: 2},
		{nRows: 1, size: 1, nPages: 1, firstOff: ^uint64(0), pmWords: 1},
		// Page count far beyond the page buffer: the historical unchecked
		// make([]uint64, vals[3]) OOM.
		{nRows: 1, size: 4096, nPages: uint64(1) << 40, pmWords: 1},
		{nRows: 1, size: 4096, nPages: ^uint64(0), pmWords: 1},
		// Size inconsistent with the listed pages (including wrap-around
		// attempts on the size word).
		{nRows: 1, size: 8192, nPages: 1, pmWords: 1},
		{nRows: 1, size: ^uint64(0), nPages: 1, pmWords: 1},
		{nRows: 1, size: 1, nPages: 0, pmWords: 0},
		// Row count disagreeing with the chain shape (truncated matrix).
		{nRows: 0, size: 4096, nPages: 1, pmWords: 1},
		{nRows: 2, size: 4096, nPages: 1, pmWords: 1},
		{nRows: ^uint64(0), size: 4096, nPages: 1, pmWords: 1},
		// Broadcast masks naming no DPU, a DPU past the 4-DPU test rank, or
		// bit 63.
		{nRows: 1, size: 4096, nPages: 1, pmWords: 1, bcast: true},
		{nRows: 1, size: 4096, nPages: 1, pmWords: 1, bcast: true, mask: 0b10010},
		{nRows: 1, size: 4096, nPages: 1, pmWords: 1, bcast: true, mask: 1<<63 | 1},
	}
	return valid, adversarial
}

// runMatrixChain drives one encoded matrix at the backend through the wire
// path (HandleWindow), returning the device's verdict. The page buffer
// points at real guest pages so valid encodings genuinely copy.
func runMatrixChain(t *testing.T, s matrixSeed) error {
	t.Helper()
	b, mem := testBackend(t, true)
	data, err := mem.Alloc(4 * hostmem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := mem.Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := virtio.PutU64s(meta.Data, []uint64{s.nRows}); err != nil {
		t.Fatal(err)
	}
	dm, err := mem.Alloc(8 * virtio.DPUMetaWords)
	if err != nil {
		t.Fatal(err)
	}
	if err := virtio.PutU64s(dm.Data, []uint64{s.dpu, s.size, s.mramOff, s.nPages, s.firstOff}); err != nil {
		t.Fatal(err)
	}
	pm, err := mem.Alloc(8 * int(s.pmWords))
	if err != nil {
		t.Fatal(err)
	}
	pmVals := make([]uint64, s.pmWords)
	for i := range pmVals {
		pmVals[i] = data.GPA + uint64(i%4)*hostmem.PageSize
	}
	if err := virtio.PutU64s(pm.Data, pmVals); err != nil {
		t.Fatal(err)
	}
	req := virtio.Request{Op: virtio.OpWriteRank, DPUMask: s.mask, Length: s.size}
	if s.bcast {
		req.Op = virtio.OpWriteRankBcast
	}
	chain := buildChain(t, mem, req, []virtio.Desc{
		{GPA: meta.GPA, Len: 8},
		{GPA: dm.GPA, Len: uint32(8 * virtio.DPUMetaWords)},
		{GPA: pm.GPA, Len: uint32(8 * int(s.pmWords))},
	})
	return handle(b, chain, simtime.New())
}

// TestDeserializeSeedCorpus pins the corpus behavior down in a plain unit
// test, so every `go test` run exercises the adversarial encodings even when
// the fuzz engine is not invoked.
func TestDeserializeSeedCorpus(t *testing.T) {
	valid, adversarial := deserializeSeeds()
	for i, s := range valid {
		if err := runMatrixChain(t, s); err != nil {
			t.Errorf("valid seed %d (%+v) rejected: %v", i, s, err)
		}
	}
	for i, s := range adversarial {
		if err := runMatrixChain(t, s); err == nil {
			t.Errorf("adversarial seed %d (%+v) accepted without error", i, s)
		}
	}
	// The two historical crashers specifically surface as the decode
	// sentinel, distinguishable from transport errors.
	for _, s := range []matrixSeed{adversarial[1], adversarial[3]} {
		if err := runMatrixChain(t, s); !errors.Is(err, ErrBadDescriptor) {
			t.Errorf("seed %+v: want ErrBadDescriptor, got %v", s, err)
		}
	}
}

// FuzzDeserialize hardens the transfer-matrix decode against arbitrary
// guest-controlled metadata, mirroring virtio's FuzzDecodeRequest: a hostile
// or corrupted row encoding must produce a clean per-request error — never
// a panic in the segment walk, an out-of-bounds slice, or an allocation
// sized by an unchecked guest word.
func FuzzDeserialize(f *testing.F) {
	valid, adversarial := deserializeSeeds()
	for _, s := range append(valid, adversarial...) {
		f.Add(s.nRows, s.dpu, s.size, s.mramOff, s.nPages, s.firstOff, s.pmWords, s.bcast, s.mask)
	}
	f.Fuzz(func(t *testing.T, nRows, dpu, size, mramOff, nPages, firstOff uint64, pmWords uint16, bcast bool, mask uint64) {
		// Cap the page buffer so the fuzzer explores geometry mismatches,
		// not allocator exhaustion in the test harness itself.
		if pmWords > 512 {
			pmWords = 512
		}
		s := matrixSeed{nRows: nRows, dpu: dpu, size: size, mramOff: mramOff,
			nPages: nPages, firstOff: firstOff, pmWords: pmWords, bcast: bcast, mask: mask}
		// No panic, whatever the encoding; errors are the expected outcome
		// for hostile ones. A broadcast whose mask names no DPU or one past
		// the 4-DPU test rank must never be accepted.
		err := runMatrixChain(t, s)
		if bcast && (mask == 0 || mask>>4 != 0) && err == nil {
			t.Fatalf("broadcast with mask %#x accepted", mask)
		}
	})
}
