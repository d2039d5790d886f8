package vmm

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/hostmem"
	"repro/internal/manager"
	"repro/internal/obs"
	"repro/internal/pim"
	"repro/internal/sdk"
	"repro/internal/trace"
)

// bcastTrial is one randomized push+pull geometry: one shared payload pushed
// to a subset of the rank's DPUs at a random MRAM offset, then read back
// per-DPU.
type bcastTrial struct {
	dpus []int
	off  int64
	size int
}

// bcastTrials generates a deterministic trial mix: trial 0 is the 1-DPU
// degenerate (must stay on the plain path), the rest are random subsets.
func bcastTrials(rng *rand.Rand, nDPUs, maxSize int, trials int) []bcastTrial {
	out := make([]bcastTrial, 0, trials)
	for i := 0; i < trials; i++ {
		k := 1
		if i > 0 {
			k = 2 + rng.Intn(nDPUs-1)
		}
		t := bcastTrial{
			dpus: rng.Perm(nDPUs)[:k],
			off:  8 * int64(rng.Intn(32<<10)),
			size: 1 + rng.Intn(maxSize-1),
		}
		out = append(out, t)
	}
	return out
}

// runBcastTrials boots one VM with the given options, drives every trial
// (push the shared payload, pull into per-DPU buffers) and returns the
// concatenated readbacks. The payload bytes are derived from rng, so two
// calls with equally-seeded generators perform identical guest work.
func runBcastTrials(t *testing.T, opts Options, trials []bcastTrial, rng *rand.Rand) ([]byte, *VM) {
	t.Helper()
	mach, err := pim.NewMachine(pim.MachineConfig{
		Ranks: 1,
		Rank:  pim.RankConfig{DPUs: 8, MRAMBytes: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	vm, err := NewVM(mach, manager.New(mach, manager.Options{}), Config{Name: "bcast-prop", Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	set, err := vm.AllocSet(8)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Free()
	var readback bytes.Buffer
	for ti, tr := range trials {
		src, err := vm.AllocBuffer(tr.size)
		if err != nil {
			t.Fatal(err)
		}
		rng.Read(src.Data)
		for _, d := range tr.dpus {
			if err := set.PrepareXfer(d, src); err != nil {
				t.Fatal(err)
			}
		}
		if err := set.PushXfer(sdk.ToDPU, tr.off, tr.size); err != nil {
			t.Fatalf("trial %d push: %v", ti, err)
		}
		dst := make([]hostmem.Buffer, len(tr.dpus))
		for i, d := range tr.dpus {
			if dst[i], err = vm.AllocBuffer(tr.size); err != nil {
				t.Fatal(err)
			}
			if err := set.PrepareXfer(d, dst[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := set.PushXfer(sdk.FromDPU, tr.off, tr.size); err != nil {
			t.Fatalf("trial %d pull: %v", ti, err)
		}
		for i := range dst {
			if !bytes.Equal(dst[i].Data[:tr.size], src.Data[:tr.size]) {
				t.Fatalf("trial %d: readback mismatch on DPU %d", ti, tr.dpus[i])
			}
			readback.Write(dst[i].Data[:tr.size])
		}
	}
	return readback.Bytes(), vm
}

// TestBcastPropertyEquivalence is the broadcast property test: for random
// sizes, offsets and DPU subsets, the broadcast variant must produce
// bit-identical readbacks to the replicated-rows variant AND spend exactly
// the same virtual time in the rank lane (T-data) — deduplication is a wire
// and host-copy optimization; the rank-side byte movement never shrinks.
// The serialization-side lanes (Page, Ser) by contrast must get cheaper.
func TestBcastPropertyEquivalence(t *testing.T) {
	for _, mode := range []struct {
		name     string
		pipeline bool
		maxSize  int
	}{
		// Plain path: sendMatrix collapses the rows.
		{"matrix", false, 32 << 10},
		// Pipelined window without batching: sizes stay under
		// BatchThreshold, and such small writes still go out synchronously
		// through sendMatrix.
		{"pipelined", true, 12 << 10},
	} {
		t.Run(mode.name, func(t *testing.T) {
			opts := Full()
			opts.Batch = false
			opts.Pipeline = mode.pipeline
			trials := bcastTrials(rand.New(rand.NewSource(42)), 8, mode.maxSize, 12)

			plain, plainVM := runBcastTrials(t, opts, trials, rand.New(rand.NewSource(7)))
			opts.Bcast = true
			bcast, bcastVM := runBcastTrials(t, opts, trials, rand.New(rand.NewSource(7)))

			if !bytes.Equal(plain, bcast) {
				t.Error("broadcast readback differs from replicated-rows readback")
			}
			pt, bt := plainVM.Tracker(), bcastVM.Tracker()
			if p, b := pt.Get(trace.StepTData), bt.Get(trace.StepTData); p != b {
				t.Errorf("rank lane diverged: plain T-data=%v, bcast T-data=%v", p, b)
			}
			for _, lane := range []string{trace.StepPage, trace.StepSer} {
				if p, b := pt.Get(lane), bt.Get(lane); b >= p {
					t.Errorf("%s lane must shrink under broadcast: plain=%v, bcast=%v", lane, p, b)
				}
			}

			var collapsed, saved, fanout int64
			for _, tr := range trials {
				if len(tr.dpus) < 2 {
					continue
				}
				collapsed++
				saved += int64(len(tr.dpus) - 1)
				fanout += int64(len(tr.dpus))
			}
			bc := obs.Aggregate(bcastVM.Metrics())
			for name, want := range map[string]int64{
				"frontend.bcast.collapsed":  collapsed,
				"frontend.bcast.rows_saved": saved,
				"backend.bcast.fanout":      fanout,
			} {
				if got := bc[name]; got != want {
					t.Errorf("%s = %d, want %d", name, got, want)
				}
			}
			pc := obs.Aggregate(plainVM.Metrics())
			for _, name := range []string{"frontend.bcast.collapsed", "frontend.bcast.rows_saved", "backend.bcast.fanout"} {
				if pc[name] != 0 {
					t.Errorf("plain variant must never touch %s, got %d", name, pc[name])
				}
			}
		})
	}
}

// TestBcastDegenerateStaysPlain checks that a 1-row matrix never collapses:
// with nothing to deduplicate, the broadcast wire shape would only add a
// descriptor.
func TestBcastDegenerateStaysPlain(t *testing.T) {
	opts := Full()
	opts.Batch = false
	opts.Bcast = true
	trials := []bcastTrial{{dpus: []int{3}, off: 128, size: 4 << 10}}
	_, vm := runBcastTrials(t, opts, trials, rand.New(rand.NewSource(1)))
	counters := obs.Aggregate(vm.Metrics())
	for _, name := range []string{"frontend.bcast.collapsed", "frontend.bcast.rows_saved", "backend.bcast.fanout"} {
		if counters[name] != 0 {
			t.Errorf("1-DPU write must stay on the plain path: %s = %d", name, counters[name])
		}
	}
}
