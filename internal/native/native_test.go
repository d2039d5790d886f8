package native_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/hostmem"
	"repro/internal/manager"
	"repro/internal/native"
	"repro/internal/pim"
	"repro/internal/sdk"
	"repro/internal/trace"
)

func stack(t *testing.T) (*pim.Machine, *native.Env) {
	t.Helper()
	mach, err := pim.NewMachine(pim.MachineConfig{
		Ranks: 2,
		Rank:  pim.RankConfig{DPUs: 4, MRAMBytes: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	mach.Registry().MustRegister(&pim.Kernel{
		Name: "noop", Tasklets: 2, CodeBytes: 512,
		Run: func(ctx *pim.Ctx) error {
			ctx.Tick(1000)
			return nil
		},
	})
	mgr := manager.New(mach, manager.Options{})
	return mach, native.NewEnv(mach, mgr, 1<<30)
}

func TestNativeRoundTrip(t *testing.T) {
	_, env := stack(t)
	set, err := env.AllocSet(8)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = set.Free() }()
	buf, err := env.AllocBuffer(4096)
	if err != nil {
		t.Fatal(err)
	}
	copy(buf.Data, "native performance mode")
	for d := 0; d < 8; d++ {
		if err := set.PrepareXfer(d, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := set.PushXfer(sdk.ToDPU, 0, 4096); err != nil {
		t.Fatal(err)
	}
	out, err := env.AllocBuffer(4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := set.CopyFromMRAM(7, 0, out, 4096); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Data[:23], buf.Data[:23]) {
		t.Error("round trip failed")
	}
	// Native execution produces driver-centric breakdown entries too.
	if env.Tracker().Get(trace.OpWriteRank) <= 0 {
		t.Error("write-to-rank time not recorded")
	}
	if env.Tracker().Get(trace.OpReadRank) <= 0 {
		t.Error("read-from-rank time not recorded")
	}
}

func TestNativeLaunchBootOnce(t *testing.T) {
	mach, env := stack(t)
	set, err := env.AllocSet(4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = set.Free() }()
	if err := set.Load("noop"); err != nil {
		t.Fatal(err)
	}
	rank, err := mach.Rank(0)
	if err != nil {
		t.Fatal(err)
	}
	before := rank.CI().Ops()
	if err := set.Launch(); err != nil {
		t.Fatal(err)
	}
	first := rank.CI().Ops() - before
	before = rank.CI().Ops()
	if err := set.Launch(); err != nil {
		t.Fatal(err)
	}
	second := rank.CI().Ops() - before
	if first <= second {
		t.Errorf("first launch CI ops (%d) must exceed relaunch (%d)", first, second)
	}
	if first < 4*10 {
		t.Errorf("first launch issued %d CI ops, want >= 40 boot ops", first)
	}
}

func TestNativeAllocSpansRanks(t *testing.T) {
	_, env := stack(t)
	set, err := env.AllocSet(8)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = set.Free() }()
	if set.NumRanks() != 2 {
		t.Errorf("8 DPUs over 4-DPU ranks: %d ranks, want 2", set.NumRanks())
	}
	if _, err := env.AllocSet(1); err == nil {
		t.Error("all ranks taken: further allocation must fail")
	}
}

func TestNativeFreeReturnsRanks(t *testing.T) {
	_, env := stack(t)
	set, err := env.AllocSet(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Free(); err != nil {
		t.Fatal(err)
	}
	set2, err := env.AllocSet(8)
	if err != nil {
		t.Fatalf("re-alloc after free: %v", err)
	}
	_ = set2.Free()
}

// TestNativeNegativeRAM: a negative RAM size gives an environment with no
// room for buffers rather than a panic while sizing guest memory.
func TestNativeNegativeRAM(t *testing.T) {
	mach, err := pim.NewMachine(pim.MachineConfig{Ranks: 1, Rank: pim.RankConfig{DPUs: 4, MRAMBytes: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	for _, ram := range []int64{-1, -1 << 20} {
		env := native.NewEnv(mach, manager.New(mach, manager.Options{}), ram)
		if _, err := env.AllocBuffer(1); !errors.Is(err, hostmem.ErrOutOfMemory) {
			t.Errorf("RAM %d: AllocBuffer(1): want ErrOutOfMemory, got %v", ram, err)
		}
	}
}
