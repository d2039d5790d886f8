package vpim_test

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"testing"

	"repro/internal/conformance"
	"repro/internal/manager"
	"repro/internal/obs"
	"repro/internal/pim"
	"repro/internal/prim"
	"repro/internal/vmm"
)

// hostConcTwinApps are the apps whose span exports the twins also compare:
// RED pushes bulk parallel transfer matrices (the row worker pool), TRNS
// issues many smaller transfers across both ranks (the per-rank fan-out).
var hostConcTwinApps = []string{"RED", "TRNS"}

// twinResult is everything observable about one run that real host
// concurrency must not change.
type twinResult struct {
	digest   conformance.Digest
	clock    int64
	counters map[string]int64
	trace    []byte
}

// runHostTwin executes app on a fresh two-rank vmm.Full VM at
// GOMAXPROCS procs, which bounds the backend's row pool and decides whether
// the rank fan-out runs on real goroutines.
func runHostTwin(t *testing.T, app prim.App, procs int, trace bool) twinResult {
	t.Helper()
	runtime.GOMAXPROCS(procs)
	mach, err := pim.NewMachine(pim.MachineConfig{
		Ranks: 2,
		Rank:  pim.RankConfig{DPUs: 8, MRAMBytes: 8 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := prim.Register(mach.Registry()); err != nil {
		t.Fatal(err)
	}
	mgr := manager.New(mach, manager.Options{})
	vm, err := vmm.NewVM(mach, mgr, vmm.Config{
		Name: "twin", VCPUs: 16, VUPMEMs: 2, Options: vmm.Full(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if trace {
		vm.EnableTracing()
	}
	dg, err := conformance.RunApp(vm, app, prim.Params{DPUs: 16, Scale: 1, Seed: 1})
	if err != nil {
		t.Fatalf("%s at GOMAXPROCS %d: %v", app.Name, procs, err)
	}
	res := twinResult{
		digest:   dg,
		clock:    int64(vm.Timeline().Now()),
		counters: obs.Aggregate(vm.Metrics()),
	}
	if err := conformance.CheckCounters(res.counters, vmm.Full()); err != nil {
		t.Fatalf("%s at GOMAXPROCS %d: %v", app.Name, procs, err)
	}
	if trace {
		res.trace = vm.TraceJSON()
	}
	return res
}

// counterDiff lists, sorted, every counter whose value differs between a
// and b (a counter one snapshot lacks reads as missing).
func counterDiff(a, b map[string]int64) []string {
	var diff []string
	for name, av := range a {
		if bv, ok := b[name]; !ok {
			diff = append(diff, fmt.Sprintf("%s: %d vs missing", name, av))
		} else if av != bv {
			diff = append(diff, fmt.Sprintf("%s: %d vs %d", name, av, bv))
		}
	}
	for name, bv := range b {
		if _, ok := a[name]; !ok {
			diff = append(diff, fmt.Sprintf("%s: missing vs %d", name, bv))
		}
	}
	sort.Strings(diff)
	return diff
}

// TestHostWorkersBitIdentical: a VM whose data path runs on real host
// goroutines (GOMAXPROCS 4: row pool shards and the per-rank fan-out) is
// observably indistinguishable from the sequential twin (GOMAXPROCS 1) on
// every matrix app: readback digest, virtual clock and the whole counter
// snapshot, and on RED and TRNS also the traced span export. Host
// goroutines may only change wall-clock time, never modeled behaviour.
func TestHostWorkersBitIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, app := range matrixApps(t) {
		seq := runHostTwin(t, app, 1, false)
		par := runHostTwin(t, app, 4, false)
		if par.digest != seq.digest {
			t.Errorf("%s: GOMAXPROCS 4 digest %v != GOMAXPROCS 1 digest %v", app.Name, par.digest, seq.digest)
		}
		if par.clock != seq.clock {
			t.Errorf("%s: GOMAXPROCS 4 clock %d != GOMAXPROCS 1 clock %d", app.Name, par.clock, seq.clock)
		}
		if diff := counterDiff(par.counters, seq.counters); len(diff) > 0 {
			t.Errorf("%s: counters differ between GOMAXPROCS 4 and 1: %v", app.Name, diff)
		}
	}
	// Traced pairs: the span export must be byte-identical (the row pool
	// still runs concurrently under tracing; only the rank fan-out is
	// gated).
	for _, name := range hostConcTwinApps {
		app, err := prim.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		seq := runHostTwin(t, app, 1, true)
		par := runHostTwin(t, app, 4, true)
		if par.digest != seq.digest {
			t.Errorf("%s traced: GOMAXPROCS 4 digest %v != GOMAXPROCS 1 digest %v", name, par.digest, seq.digest)
		}
		if !bytes.Equal(par.trace, seq.trace) {
			t.Errorf("%s: TraceJSON differs between GOMAXPROCS 4 and 1 (%d vs %d bytes)",
				name, len(par.trace), len(seq.trace))
		}
	}
}

// TestDescriptorFaultProbes proves the hardened decode checks fire on the
// wire path: planted row-metadata corruptions (first-page offset past the
// page end, page count beyond the page buffer) surface as clean per-request
// errors and the device keeps working afterwards.
func TestDescriptorFaultProbes(t *testing.T) {
	if err := conformance.DescriptorFaultProbe(); err != nil {
		t.Fatal(err)
	}
}
