package pim

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cost"
)

func testRank(t *testing.T, dpus int, mram int64) *Rank {
	t.Helper()
	return NewRank(0, RankConfig{DPUs: dpus, MRAMBytes: mram}, cost.Default())
}

func TestRankWriteReadRoundTrip(t *testing.T) {
	r := testRank(t, 8, 1<<20)
	data := []byte("the quick brown fox jumps over the lazy dog")
	if err := r.WriteDPU(3, 4096, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := r.ReadDPU(3, 4096, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("round trip: got %q", got)
	}
}

func TestRankDPUIsolation(t *testing.T) {
	r := testRank(t, 4, 1<<20)
	for d := 0; d < 4; d++ {
		buf := bytes.Repeat([]byte{byte(d + 1)}, 8192)
		if err := r.WriteDPU(d, 0, buf); err != nil {
			t.Fatal(err)
		}
	}
	for d := 0; d < 4; d++ {
		got := make([]byte, 8192)
		if err := r.ReadDPU(d, 0, got); err != nil {
			t.Fatal(err)
		}
		for i, b := range got {
			if b != byte(d+1) {
				t.Fatalf("dpu %d byte %d = %d: a write leaked across DPUs", d, i, b)
			}
		}
	}
}

// Property: rank storage behaves as an independent flat memory per DPU for
// arbitrary offsets and sizes.
func TestRankInterleaveProperty(t *testing.T) {
	r := testRank(t, 8, 1<<20)
	rng := rand.New(rand.NewSource(42))
	f := func(dpuSeed uint8, offSeed uint32, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		if len(data) > 64<<10 {
			data = data[:64<<10]
		}
		dpu := int(dpuSeed) % 8
		off := int64(offSeed) % (1<<20 - int64(len(data)))
		if err := r.WriteDPU(dpu, off, data); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if err := r.ReadDPU(dpu, off, got); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	cfg := &quick.Config{Rand: rng, MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestRankUnwrittenReadsZero(t *testing.T) {
	r := testRank(t, 2, 1<<20)
	got := make([]byte, 4096)
	got[0] = 0xFF
	if err := r.ReadDPU(1, 512<<10, got); err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("unwritten MRAM must read as zero")
		}
	}
}

func TestRankAccessErrors(t *testing.T) {
	r := testRank(t, 2, 1<<20)
	if err := r.WriteDPU(5, 0, []byte{1}); !errors.Is(err, ErrBadDPU) {
		t.Errorf("bad dpu: %v", err)
	}
	if err := r.WriteDPU(0, 1<<20, []byte{1}); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("oob: %v", err)
	}
	if err := r.ReadDPU(0, -1, []byte{1}); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("negative offset: %v", err)
	}
}

func TestRankReset(t *testing.T) {
	r := testRank(t, 2, 1<<20)
	if err := r.WriteDPU(0, 0, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	k := &Kernel{Name: "k", Tasklets: 1, Run: func(ctx *Ctx) error { return nil }}
	if err := r.LoadProgram(0, k); err != nil {
		t.Fatal(err)
	}
	r.Reset()
	got := make([]byte, 4)
	if err := r.ReadDPU(0, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{0, 0, 0, 0}) {
		t.Error("reset must erase rank memory (no data leaks across tenants)")
	}
	if r.Program(0) != nil {
		t.Error("reset must clear loaded programs")
	}
	if r.ResetDuration() <= 0 {
		t.Error("reset has a modeled cost")
	}
}

func TestKernelValidate(t *testing.T) {
	run := func(ctx *Ctx) error { return nil }
	tests := []struct {
		name string
		k    Kernel
		ok   bool
	}{
		{"valid", Kernel{Name: "k", Tasklets: 16, CodeBytes: 1024, Run: run}, true},
		{"no name", Kernel{Tasklets: 16, Run: run}, false},
		{"zero tasklets", Kernel{Name: "k", Run: run}, false},
		{"too many tasklets", Kernel{Name: "k", Tasklets: 25, Run: run}, false},
		{"iram overflow", Kernel{Name: "k", Tasklets: 1, CodeBytes: IRAMBytes + 1, Run: run}, false},
		{"no entry", Kernel{Name: "k", Tasklets: 1}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.k.Validate()
			if (err == nil) != tc.ok {
				t.Errorf("Validate() = %v, ok=%v", err, tc.ok)
			}
		})
	}
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	k := &Kernel{Name: "a/b", Tasklets: 1, Run: func(ctx *Ctx) error { return nil }}
	if err := reg.Register(k); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(k); err == nil {
		t.Error("duplicate registration must fail")
	}
	got, err := reg.Lookup("a/b")
	if err != nil || got != k {
		t.Errorf("Lookup = %v, %v", got, err)
	}
	if _, err := reg.Lookup("missing"); err == nil {
		t.Error("missing kernel must fail")
	}
	if names := reg.Names(); len(names) != 1 || names[0] != "a/b" {
		t.Errorf("Names = %v", names)
	}
}

func TestSymbols(t *testing.T) {
	r := testRank(t, 2, 1<<20)
	k := &Kernel{
		Name: "k", Tasklets: 1,
		Symbols: []Symbol{{Name: "x", Bytes: 8}},
		Run:     func(ctx *Ctx) error { return nil },
	}
	if err := r.LoadProgram(0, k); err != nil {
		t.Fatal(err)
	}
	if err := r.SymbolWrite(0, "x", 0, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	if err := r.SymbolRead(0, "x", 2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{3, 4, 5, 6}) {
		t.Errorf("symbol read = %v", got)
	}
	if err := r.SymbolWrite(0, "nope", 0, []byte{1}); !errors.Is(err, ErrNoSymbol) {
		t.Errorf("unknown symbol: %v", err)
	}
	if err := r.SymbolWrite(0, "x", 6, []byte{1, 2, 3}); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("symbol overrun: %v", err)
	}
	if err := r.SymbolRead(1, "x", 0, got); !errors.Is(err, ErrNoSymbol) {
		t.Errorf("symbol on unloaded dpu: %v", err)
	}
}

// TestLaunchKernel runs a real multi-tasklet kernel with barrier, shared
// WRAM, MRAM DMA, host symbols and the DPU mutex.
func TestLaunchKernel(t *testing.T) {
	r := testRank(t, 2, 1<<20)
	k := &Kernel{
		Name: "sum", Tasklets: 8, CodeBytes: 1024,
		Symbols: []Symbol{{Name: "total", Bytes: 8}},
		Run: func(ctx *Ctx) error {
			if ctx.Me() == 0 {
				ctx.ResetHeap()
			}
			ctx.Barrier()
			buf, err := ctx.Alloc(8)
			if err != nil {
				return err
			}
			if err := ctx.MRAMRead(int64(ctx.Me())*8, buf); err != nil {
				return err
			}
			ctx.Tick(10)
			return ctx.AddHostU64("total", uint64(buf[0]))
		},
	}
	input := make([]byte, 64)
	var want uint64
	for i := 0; i < 8; i++ {
		input[i*8] = byte(i + 1)
		want += uint64(i + 1)
	}
	for d := 0; d < 2; d++ {
		if err := r.LoadProgram(d, k); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteDPU(d, 0, input); err != nil {
			t.Fatal(err)
		}
	}
	res, err := r.Launch([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration <= 0 {
		t.Error("launch must consume virtual time")
	}
	if res.Instructions != 2*8*10 {
		t.Errorf("instructions = %d, want 160", res.Instructions)
	}
	for d := 0; d < 2; d++ {
		var out [8]byte
		if err := r.SymbolRead(d, "total", 0, out[:]); err != nil {
			t.Fatal(err)
		}
		if got := uint64(out[0]); got != want {
			t.Errorf("dpu %d total = %d, want %d", d, got, want)
		}
	}
}

func TestLaunchNoProgram(t *testing.T) {
	r := testRank(t, 2, 1<<20)
	if _, err := r.Launch([]int{0}); !errors.Is(err, ErrNoProgram) {
		t.Errorf("want ErrNoProgram, got %v", err)
	}
}

func TestLaunchPipelinePenalty(t *testing.T) {
	mkKernel := func(tasklets int) *Kernel {
		return &Kernel{
			Name: "spin", Tasklets: tasklets,
			Run: func(ctx *Ctx) error {
				ctx.Tick(1000)
				return nil
			},
		}
	}
	run := func(tasklets int) time.Duration {
		r := testRank(t, 1, 1<<20)
		if err := r.LoadProgram(0, mkKernel(tasklets)); err != nil {
			t.Fatal(err)
		}
		res, err := r.Launch([]int{0})
		if err != nil {
			t.Fatal(err)
		}
		return res.Duration
	}
	// With 16 tasklets the pipeline is full (16000 instructions at 1
	// instr/cycle); with 2 tasklets the 11-cycle rule throttles issue.
	full := run(16)
	starved := run(2)
	// starved: 2000 instr * 11/2 = 11000 cycles < full's 16000... compare
	// per-instruction efficiency instead.
	perInstrFull := float64(full) / 16000
	perInstrStarved := float64(starved) / 2000
	if perInstrStarved <= perInstrFull {
		t.Errorf("per-instruction time with 2 tasklets (%f) must exceed full pipeline (%f)",
			perInstrStarved, perInstrFull)
	}
}

func TestDMAConstraints(t *testing.T) {
	r := testRank(t, 1, 1<<20)
	var dmaErr, alignErr, oobErr error
	k := &Kernel{
		Name: "dma", Tasklets: 1,
		Run: func(ctx *Ctx) error {
			big, err := ctx.Alloc(4096)
			if err != nil {
				return err
			}
			dmaErr = ctx.MRAMRead(0, big[:4096])
			alignErr = ctx.MRAMRead(4, big[:8])
			oobErr = ctx.MRAMRead(1<<20-8, big[:16])
			return nil
		},
	}
	if err := r.LoadProgram(0, k); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Launch([]int{0}); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(dmaErr, ErrDMATooLarge) {
		t.Errorf("oversized DMA: %v", dmaErr)
	}
	if !errors.Is(alignErr, ErrBadAlignment) {
		t.Errorf("misaligned DMA: %v", alignErr)
	}
	if !errors.Is(oobErr, ErrOutOfRange) {
		t.Errorf("oob DMA: %v", oobErr)
	}
}

func TestWRAMOverflow(t *testing.T) {
	r := testRank(t, 1, 1<<20)
	var allocErr error
	k := &Kernel{
		Name: "wram", Tasklets: 1,
		Run: func(ctx *Ctx) error {
			if _, err := ctx.Alloc(WRAMBytes); err != nil {
				return err
			}
			_, allocErr = ctx.Alloc(1)
			return nil
		},
	}
	if err := r.LoadProgram(0, k); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Launch([]int{0}); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(allocErr, ErrWRAMOverflow) {
		t.Errorf("want ErrWRAMOverflow, got %v", allocErr)
	}
}

func TestSharedWRAM(t *testing.T) {
	r := testRank(t, 1, 1<<20)
	k := &Kernel{
		Name: "shared", Tasklets: 4,
		Symbols: []Symbol{{Name: "sum", Bytes: 8}},
		Run: func(ctx *Ctx) error {
			buf, err := ctx.Shared("acc", 8)
			if err != nil {
				return err
			}
			ctx.Lock()
			buf[0]++
			ctx.Unlock()
			ctx.Barrier()
			if ctx.Me() == 0 {
				return ctx.SetHostU64("sum", uint64(buf[0]))
			}
			return nil
		},
	}
	if err := r.LoadProgram(0, k); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Launch([]int{0}); err != nil {
		t.Fatal(err)
	}
	var out [8]byte
	if err := r.SymbolRead(0, "sum", 0, out[:]); err != nil {
		t.Fatal(err)
	}
	if out[0] != 4 {
		t.Errorf("shared accumulator = %d, want 4 (one per tasklet)", out[0])
	}
}

func TestMachine(t *testing.T) {
	if _, err := NewMachine(MachineConfig{}); err == nil {
		t.Error("zero ranks must fail")
	}
	m, err := NewMachine(MachineConfig{Ranks: 3, Rank: RankConfig{DPUs: 4, MRAMBytes: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumRanks() != 3 {
		t.Errorf("NumRanks = %d", m.NumRanks())
	}
	if _, err := m.Rank(3); err == nil {
		t.Error("out-of-range rank must fail")
	}
	r, err := m.Rank(1)
	if err != nil || r.Index() != 1 {
		t.Errorf("Rank(1) = %v, %v", r, err)
	}
	if len(m.Ranks()) != 3 {
		t.Error("Ranks() wrong length")
	}
	if m.Registry() == nil {
		t.Error("machine must have a registry")
	}
}

func TestRankDefaults(t *testing.T) {
	r := NewRank(0, RankConfig{}, cost.Default())
	if r.NumDPUs() != MaxDPUsPerRank {
		t.Errorf("default DPUs = %d, want 64", r.NumDPUs())
	}
	if r.MRAMBytes() != DefaultMRAMBytes {
		t.Errorf("default MRAM = %d", r.MRAMBytes())
	}
	if r.FrequencyMHz() != 350 {
		t.Errorf("default frequency = %d", r.FrequencyMHz())
	}
	if r.TotalBytes() != 64*DefaultMRAMBytes {
		t.Errorf("TotalBytes = %d", r.TotalBytes())
	}
}

func TestCICounter(t *testing.T) {
	r := testRank(t, 1, 1<<20)
	r.CIOp()
	r.CIOps(10)
	if got := r.CI().Ops(); got != 11 {
		t.Errorf("CI ops = %d, want 11", got)
	}
}
