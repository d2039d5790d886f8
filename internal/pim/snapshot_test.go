package pim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cost"
)

func TestCheckpointRestore(t *testing.T) {
	src := testRank(t, 4, 1<<20)
	k := &Kernel{
		Name: "k", Tasklets: 1,
		Symbols: []Symbol{{Name: "v", Bytes: 4}},
		Run:     func(ctx *Ctx) error { return nil },
	}
	for d := 0; d < 4; d++ {
		if err := src.LoadProgram(d, k); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.WriteDPU(2, 4096, []byte("checkpointed state")); err != nil {
		t.Fatal(err)
	}
	if err := src.SymbolWrite(1, "v", 0, []byte{9, 8, 7, 6}); err != nil {
		t.Fatal(err)
	}

	snap, ckDur, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if ckDur <= 0 {
		t.Error("checkpoint must take modeled time")
	}
	if snap.DPUs() != 4 || snap.MRAMBytes() != 1<<20 {
		t.Errorf("snapshot geometry: %d DPUs, %d bytes", snap.DPUs(), snap.MRAMBytes())
	}
	if snap.CommittedBytes() == 0 {
		t.Error("snapshot must carry the written chunk")
	}

	dst := testRank(t, 4, 1<<20)
	if _, err := dst.Restore(snap); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 18)
	if err := dst.ReadDPU(2, 4096, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("checkpointed state")) {
		t.Errorf("restored MRAM = %q", got)
	}
	var sym [4]byte
	if err := dst.SymbolRead(1, "v", 0, sym[:]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sym[:], []byte{9, 8, 7, 6}) {
		t.Errorf("restored symbol = %v", sym)
	}
	if dst.Program(0) != k {
		t.Error("restored program missing")
	}

	// The snapshot keeps the checkpointed bytes: mutating the source
	// afterwards must not leak into the restored rank.
	if err := src.WriteDPU(2, 4096, []byte("MUTATED")); err != nil {
		t.Fatal(err)
	}
	if err := dst.ReadDPU(2, 4096, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, []byte("checkpointed")) {
		t.Error("snapshot aliases the source rank")
	}
}

func TestRestoreGeometryMismatch(t *testing.T) {
	src := testRank(t, 4, 1<<20)
	snap, _, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	dst := testRank(t, 2, 1<<20)
	if _, err := dst.Restore(snap); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("geometry mismatch: %v", err)
	}
}

func TestCheckpointEmptyRankIsCheap(t *testing.T) {
	r := NewRank(0, RankConfig{DPUs: 64, MRAMBytes: 64 << 20}, cost.Default())
	snap, dur, err := r.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if snap.CommittedBytes() != 0 || dur != 0 {
		t.Errorf("empty rank snapshot: %d bytes, %v", snap.CommittedBytes(), dur)
	}
}

// banks reads every DPU's whole MRAM bank.
func banks(t *testing.T, r *Rank) [][]byte {
	t.Helper()
	out := make([][]byte, r.NumDPUs())
	for d := range out {
		out[d] = make([]byte, r.MRAMBytes())
		if err := r.ReadDPU(d, 0, out[d]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func equalBanks(t *testing.T, what string, got, want [][]byte) {
	t.Helper()
	for d := range want {
		if !bytes.Equal(got[d], want[d]) {
			t.Errorf("%s: dpu %d bank differs from the expected contents", what, d)
		}
	}
}

// tagKernel has each tasklet write (mark, tasklet id) at MRAM offset
// 8*id, so every DPU of a launch writes the rank's first chunk.
var tagKernel = &Kernel{
	Name: "tag", Tasklets: 4,
	Symbols: []Symbol{{Name: "mark", Bytes: 4}},
	Run: func(ctx *Ctx) error {
		mark, err := ctx.HostU32("mark")
		if err != nil {
			return err
		}
		var b [8]byte
		binary.LittleEndian.PutUint32(b[:], mark)
		binary.LittleEndian.PutUint32(b[4:], uint32(ctx.Me()))
		return ctx.MRAMWrite(b[:], int64(8*ctx.Me()))
	},
}

// tagRank mutates r through the host interface and through a launch of
// every DPU, and applies the same writes to model, the expected banks.
func tagRank(r *Rank, model [][]byte, mark uint32) error {
	var m [4]byte
	binary.LittleEndian.PutUint32(m[:], mark)
	host := bytes.Repeat(m[:], 64)
	writes := []struct {
		d   int
		off int64
	}{
		{1, 4096},      // a chunk the snapshot shares
		{2, 512 << 10}, // a chunk the snapshot lacks
	}
	dpus := make([]int, r.NumDPUs())
	for d := range dpus {
		dpus[d] = d
		if err := r.SymbolWrite(d, "mark", 0, m[:]); err != nil {
			return err
		}
		for id := 0; id < tagKernel.Tasklets; id++ {
			binary.LittleEndian.PutUint32(model[d][8*id:], mark)
			binary.LittleEndian.PutUint32(model[d][8*id+4:], uint32(id))
		}
	}
	for _, w := range writes {
		if err := r.WriteDPU(w.d, w.off, host); err != nil {
			return err
		}
		copy(model[w.d][w.off:], host)
	}
	_, err := r.Launch(dpus)
	return err
}

func cloneBanks(b [][]byte) [][]byte {
	out := make([][]byte, len(b))
	for d := range b {
		out[d] = bytes.Clone(b[d])
	}
	return out
}

// TestSnapshotSharedByTwoRanks restores one snapshot onto two ranks and
// mutates both, and the source, concurrently: through WriteDPU and through
// a multi-DPU launch whose kernels write a chunk the snapshot shares. Each
// rank must see only its own writes, and a third rank restored afterwards
// must see exactly the checkpointed banks and symbols.
func TestSnapshotSharedByTwoRanks(t *testing.T) {
	const dpus, mram = 8, 1 << 20
	src := testRank(t, dpus, mram)
	loadAll(t, src, tagKernel, 0, 1, 2, 3, 4, 5, 6, 7)
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 256<<10)
	for d := 0; d < dpus; d++ {
		rng.Read(data)
		if err := src.WriteDPU(d, 0, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.WriteDPU(3, 768<<10, data[:4096]); err != nil {
		t.Fatal(err)
	}
	if err := src.SymbolWrite(5, "mark", 0, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	snap, _, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	want := banks(t, src)

	a, b := testRank(t, dpus, mram), testRank(t, dpus, mram)
	for _, r := range []*Rank{a, b} {
		if _, err := r.Restore(snap); err != nil {
			t.Fatal(err)
		}
	}
	ranks := []*Rank{src, a, b}
	models := make([][][]byte, len(ranks))
	errs := make([]error, len(ranks))
	var wg sync.WaitGroup
	for i, r := range ranks {
		models[i] = cloneBanks(want)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = tagRank(r, models[i], uint32(0xA0+i))
		}()
	}
	wg.Wait()
	for i, r := range ranks {
		if errs[i] != nil {
			t.Fatalf("rank %d: %v", i, errs[i])
		}
		equalBanks(t, []string{"source", "rank a", "rank b"}[i], banks(t, r), models[i])
	}

	c := testRank(t, dpus, mram)
	if _, err := c.Restore(snap); err != nil {
		t.Fatal(err)
	}
	equalBanks(t, "third restore", banks(t, c), want)
	var sym [4]byte
	if err := c.SymbolRead(5, "mark", 0, sym[:]); err != nil {
		t.Fatal(err)
	}
	if sym != [4]byte{1, 2, 3, 4} {
		t.Errorf("third restore: symbol = %v, want the checkpointed value", sym)
	}
}

// TestRestoreZeroesChunksSnapshotLacks pins requirement R2 across a
// restore: a chunk the snapshot never committed reads as zeros even where
// the target rank held another tenant's data.
func TestRestoreZeroesChunksSnapshotLacks(t *testing.T) {
	src := testRank(t, 4, 1<<20)
	if err := src.WriteDPU(0, 0, []byte("mine")); err != nil {
		t.Fatal(err)
	}
	snap, _, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	want := banks(t, src)

	dst := testRank(t, 4, 1<<20)
	foreign := bytes.Repeat([]byte{0xEE}, 1<<20)
	for d := 0; d < 4; d++ {
		if err := dst.WriteDPU(d, 0, foreign); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dst.Restore(snap); err != nil {
		t.Fatal(err)
	}
	equalBanks(t, "restore over foreign data", banks(t, dst), want)
}

// TestCheckpointTwice checks that a write between two checkpoints shows in
// the second snapshot only, in either restore order.
func TestCheckpointTwice(t *testing.T) {
	r := testRank(t, 4, 1<<20)
	if err := r.WriteDPU(1, 0, []byte("first")); err != nil {
		t.Fatal(err)
	}
	first, _, err := r.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.WriteDPU(1, 0, []byte("again")); err != nil {
		t.Fatal(err)
	}
	second, _, err := r.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	dst := testRank(t, 4, 1<<20)
	got := make([]byte, 5)
	for _, c := range []struct {
		snap *Snapshot
		want string
	}{{second, "again"}, {first, "first"}, {second, "again"}} {
		if _, err := dst.Restore(c.snap); err != nil {
			t.Fatal(err)
		}
		if err := dst.ReadDPU(1, 0, got); err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("restored %q, want %q", got, c.want)
		}
	}
}

// TestChunkCommitAllocatesOnce has goroutines first-touch disjoint ranges
// of one DPU's chunk: a fresh chunk, and then one a snapshot shares. Each
// case must allocate exactly one chunk, and every write must land in it.
func TestChunkCommitAllocatesOnce(t *testing.T) {
	const writers = 32
	const part = chunkBytes / writers
	r := testRank(t, 2, chunkBytes) // one chunk per DPU
	race := func(what string, fill byte) {
		t.Helper()
		srcs := make([][]byte, writers)
		for g := range srcs {
			srcs[g] = bytes.Repeat([]byte{fill + byte(g)}, part)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		errs := make([]error, writers)
		for g := range writers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				errs[g] = r.WriteDPU(1, int64(g*part), srcs[g])
			}()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		close(start)
		wg.Wait()
		runtime.ReadMemStats(&after)
		if n := (after.TotalAlloc - before.TotalAlloc) / chunkBytes; n != 1 {
			t.Errorf("%s: %d chunks allocated, want 1", what, n)
		}
		for g := range writers {
			if errs[g] != nil {
				t.Fatal(errs[g])
			}
		}
		got := make([]byte, chunkBytes)
		if err := r.ReadDPU(1, 0, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, bytes.Join(srcs, nil)) {
			t.Errorf("%s: a write did not land", what)
		}
	}
	race("fresh chunk", 0x10)
	snap, _, err := r.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	race("shared chunk", 0x80)

	dst := testRank(t, 2, chunkBytes)
	if _, err := dst.Restore(snap); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, part)
	if err := dst.ReadDPU(1, 7*part, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0x17 {
		t.Errorf("snapshot changed under the copy on write: the chunk reads %#x", got[0])
	}
}

// BenchmarkCheckpointRestore times one preemption round trip of a rank
// shaped like the tenants workload (60 DPUs x 8 MiB, 256 KiB written per
// DPU, a program with one symbol loaded): checkpoint, reset, restore.
func BenchmarkCheckpointRestore(b *testing.B) {
	r := NewRank(0, RankConfig{DPUs: 60, MRAMBytes: 8 << 20}, cost.Default())
	k := &Kernel{
		Name: "k", Tasklets: 16,
		Symbols: []Symbol{{Name: "n", Bytes: 4}},
		Run:     func(ctx *Ctx) error { return nil },
	}
	data := make([]byte, 256<<10)
	rand.New(rand.NewSource(1)).Read(data)
	for d := 0; d < 60; d++ {
		loadAll(b, r, k, d)
		if err := r.WriteDPU(d, 0, data); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, _, err := r.Checkpoint()
		if err != nil {
			b.Fatal(err)
		}
		r.Reset()
		if _, err := r.Restore(snap); err != nil {
			b.Fatal(err)
		}
	}
}
