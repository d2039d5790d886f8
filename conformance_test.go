package vpim_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/conformance"
	"repro/internal/driver"
	"repro/internal/prim"
	"repro/internal/vmm"
)

// shortMatrixApps is the -short subset: the fastest PrIM applications,
// chosen so the full configuration matrix over them finishes well inside a
// minute while still covering every transfer style (bulk parallel push,
// serial retrieve, small inter-DPU reads, many tiny transfers).
var shortMatrixApps = []string{"RED", "SCAN-SSA", "SCAN-RSS", "SEL", "UNI", "MLP", "TRNS", "HST-S"}

func matrixApps(t *testing.T) []prim.App {
	t.Helper()
	if !testing.Short() && !raceEnabled {
		return prim.Apps()
	}
	apps := make([]prim.App, 0, len(shortMatrixApps))
	for _, n := range shortMatrixApps {
		app, err := prim.Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, app)
	}
	return apps
}

var update = flag.Bool("update", false, "rewrite "+nativeGolden+" from this run")

// nativeGolden holds one line per kernel-running application: its name,
// readback digest, native virtual clock and DPU-phase time, both in ns.
var nativeGolden = filepath.Join("testdata", "native_kernels.golden")

// TestConformanceMatrix runs the PrIM suite through every configuration of
// the conformance matrix (native reference, all Table 2 variants, both
// copy engines, vhost, parallel on/off, multi-VM oversubscription) and
// asserts bit-exact output agreement plus the counter and virtual-clock
// invariants. The native reference runs, plus one native index search and
// one native checksum, must also match their lines in the golden file: the
// other cells only compare runs with each other, so a kernel that lost a
// Tick would pass them. Regenerate the file with `go test -run TestConformanceMatrix
// -update .` (not -short) after an intended change to a kernel's cost.
func TestConformanceMatrix(t *testing.T) {
	runs, err := conformance.RunMatrix(matrixApps(t), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	is, err := conformance.NativeIndexSearch()
	if err != nil {
		t.Fatal(err)
	}
	ck, err := conformance.NativeChecksum()
	if err != nil {
		t.Fatal(err)
	}
	checkNativeGolden(t, append(runs, is, ck))
}

// checkNativeGolden compares each run with its golden line, or rewrites the
// golden file under -update.
func checkNativeGolden(t *testing.T, runs []conformance.NativeRun) {
	t.Helper()
	line := func(r conformance.NativeRun) string {
		return fmt.Sprintf("%s %v %d %d", r.App, r.Digest, r.Clock.Nanoseconds(), r.DPU.Nanoseconds())
	}
	if *update {
		if len(runs) != len(prim.Apps())+2 {
			t.Fatalf("-update needs every app; run it without -short and -race")
		}
		var b strings.Builder
		b.WriteString("# app digest native_clock_ns dpu_phase_ns\n")
		for _, r := range runs {
			b.WriteString(line(r) + "\n")
		}
		if err := os.MkdirAll(filepath.Dir(nativeGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(nativeGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(nativeGolden)
	if err != nil {
		t.Fatal(err)
	}
	golden := make(map[string]string)
	for _, l := range strings.Split(string(data), "\n") {
		if f := strings.Fields(l); len(f) > 0 && !strings.HasPrefix(l, "#") {
			golden[f[0]] = l
		}
	}
	for _, r := range runs {
		if got, want := line(r), golden[r.App]; got != want {
			t.Errorf("native %s run differs from %s:\n got %s\nwant %s", r.App, nativeGolden, got, want)
		}
	}
}

// TestChaosSeedsReplayable runs each chaos seed twice and asserts the
// outcomes — per-application completion, error strings, digests, counter
// snapshots and the virtual clock — are identical: the seed is a complete
// one-line reproduction of the run.
func TestChaosSeedsReplayable(t *testing.T) {
	seeds := []int64{1, 2, 3, 7, 42}
	if testing.Short() || raceEnabled {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		first, err := conformance.RunChaos(conformance.ChaosConfig{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		second, err := conformance.RunChaos(conformance.ChaosConfig{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d replay: %v", seed, err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("seed %d is not replayable:\n first: %+v\nsecond: %+v", seed, first, second)
		}
		completed := 0
		for _, ao := range first.Apps {
			if ao.Completed {
				completed++
			}
		}
		t.Logf("seed %d: %d/%d apps completed, clock %v", seed, completed, len(first.Apps), first.Clock)
	}
}

// TestConformanceTimeSliced boots twice as many VMs as the machine has
// ranks and runs each application in all of them concurrently under the
// manager's preemptive time-slicing scheduler: every VM's digest must be
// bit-identical to the native reference (preemption may only move time,
// never bytes), the scheduler must demonstrably preempt and restore, and
// teardown must leave no ALLO rank and no parked snapshot.
func TestConformanceTimeSliced(t *testing.T) {
	names := []string{"RED", "SEL", "TRNS", "SCAN-SSA"}
	if testing.Short() || raceEnabled {
		names = names[:2]
	}
	for _, n := range names {
		app, err := prim.Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := conformance.RunTimeSliced(app, t.Logf); err != nil {
			t.Fatal(err)
		}
	}
}

// TestChaosSchedReplayable runs each scheduler chaos seed twice
// (preemption racing rank death, restore-target failure, migration under
// time-slicing) and asserts the outcomes — step logs, counter snapshots,
// per-owner scheduling stats — are identical.
func TestChaosSchedReplayable(t *testing.T) {
	seeds := []int64{3, 11, 29, 47, 101}
	if testing.Short() || raceEnabled {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		first, err := conformance.RunSchedChaos(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		second, err := conformance.RunSchedChaos(seed)
		if err != nil {
			t.Fatalf("seed %d replay: %v", seed, err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("seed %d is not replayable:\n first: %+v\nsecond: %+v", seed, first, second)
		}
		t.Logf("seed %d: %d steps logged, preemptions=%d restores=%d quarantines=%d",
			seed, len(first.Log), first.Manager["manager.preemptions"],
			first.Manager["manager.restores"], first.Manager["manager.quarantines"])
	}
}

// TestChaosPipelineReplayable runs chaos seeds with the pipelined
// submission window enabled: corrupted chains now land mid-window, and the
// drain must fail only the victim chain. The outcome — completions, error
// strings, digests, counters, clock — must still replay exactly.
func TestChaosPipelineReplayable(t *testing.T) {
	seeds := []int64{5, 13, 42}
	if testing.Short() || raceEnabled {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		first, err := conformance.RunChaos(conformance.ChaosConfig{Seed: seed, Pipeline: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		second, err := conformance.RunChaos(conformance.ChaosConfig{Seed: seed, Pipeline: true})
		if err != nil {
			t.Fatalf("seed %d replay: %v", seed, err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("seed %d is not replayable under pipelining:\n first: %+v\nsecond: %+v", seed, first, second)
		}
		completed := 0
		for _, ao := range first.Apps {
			if ao.Completed {
				completed++
			}
		}
		t.Logf("seed %d: %d/%d apps completed, suppressed=%d coalesced=%d",
			seed, completed, len(first.Apps),
			first.Counters["kvm.exits.suppressed"], first.Counters["kvm.irqs.coalesced"])
	}
}

// TestPipelineFaultIsolation: a chain fault rejecting exactly one staged
// chain mid-window must fail only that chain — the failure surfaces at the
// next synchronization point, every other staged write lands intact, and
// the device stays usable.
func TestPipelineFaultIsolation(t *testing.T) {
	if err := conformance.PipelineFaultProbe(); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineSavingsReconcile runs write-heavy PrIM applications under the
// full variant with and without the pipelined submission window and
// reconciles the accounting exactly: digests must be bit-identical, the
// pipelined run must take strictly fewer notify exits and IRQs, and the
// delta must equal the suppressed/coalesced counters to the unit.
func TestPipelineSavingsReconcile(t *testing.T) {
	apps := []string{"SCAN-SSA", "TRNS"}
	if testing.Short() || raceEnabled {
		apps = apps[:1]
	}
	for _, name := range apps {
		syncOpts := vmm.Full()
		pipeOpts := vmm.Full()
		pipeOpts.Pipeline = true
		syncDg, syncSnap, err := conformance.RunCell(name, syncOpts)
		if err != nil {
			t.Fatalf("%s sync: %v", name, err)
		}
		pipeDg, pipeSnap, err := conformance.RunCell(name, pipeOpts)
		if err != nil {
			t.Fatalf("%s pipelined: %v", name, err)
		}
		if syncDg != pipeDg {
			t.Fatalf("%s: pipelined digest %v != synchronous digest %v", name, pipeDg, syncDg)
		}
		suppressed := pipeSnap["kvm.exits.suppressed"]
		coalesced := pipeSnap["kvm.irqs.coalesced"]
		if suppressed == 0 {
			t.Fatalf("%s: pipelining suppressed no notifications", name)
		}
		if pn, sn := pipeSnap["kvm.exits.notify"], syncSnap["kvm.exits.notify"]; pn >= sn {
			t.Fatalf("%s: pipelined notify exits %d not below synchronous %d", name, pn, sn)
		} else if sn-pn != suppressed {
			t.Fatalf("%s: notify delta %d != kvm.exits.suppressed %d", name, sn-pn, suppressed)
		}
		if pi, si := pipeSnap["kvm.irqs"], syncSnap["kvm.irqs"]; pi >= si {
			t.Fatalf("%s: pipelined IRQs %d not below synchronous %d", name, pi, si)
		} else if si-pi != coalesced {
			t.Fatalf("%s: IRQ delta %d != kvm.irqs.coalesced %d", name, si-pi, coalesced)
		}
		t.Logf("%s: notify %d->%d irqs %d->%d (suppressed=%d coalesced=%d)",
			name, syncSnap["kvm.exits.notify"], pipeSnap["kvm.exits.notify"],
			syncSnap["kvm.irqs"], pipeSnap["kvm.irqs"], suppressed, coalesced)
	}
}

// TestChaosCatchesPlantedBatchClipBug proves the harness detects silent
// corruption: the probe passes against the shipping driver and fails when
// the historical batch-clipping bug is re-introduced via the test hook.
func TestChaosCatchesPlantedBatchClipBug(t *testing.T) {
	if err := conformance.BatchClipProbe(); err != nil {
		t.Fatalf("probe failed against the shipping driver: %v", err)
	}
	driver.TestHookBatchClip = true
	defer func() { driver.TestHookBatchClip = false }()
	err := conformance.BatchClipProbe()
	if err == nil {
		t.Fatal("probe did not detect the planted batch-clipping bug")
	}
	t.Logf("planted bug detected: %v", err)
}
