package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/prim"
	"repro/internal/sdk"
	"repro/internal/upmem"
	"repro/internal/vmm"
)

// smallHarness keeps the smoke tests fast: a 2-rank, 8-DPU machine with
// heavily scaled-down checksum sizes.
func smallHarness(buf *bytes.Buffer) *Harness {
	return New(buf, Config{Ranks: 2, DPUsPerRank: 8, MRAMBytes: 16 << 20, ChecksumDivisor: 60})
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Ranks != 8 || cfg.DPUsPerRank != 60 || cfg.ChecksumDivisor != 4 || cfg.Scale != 1 {
		t.Errorf("defaults: %+v", cfg)
	}
}

func TestRunNativeVsVM(t *testing.T) {
	var buf bytes.Buffer
	h := smallHarness(&buf)
	p := upmem.ChecksumParams{DPUs: 8, BytesPerDPU: 1 << 20}
	nat, err := h.RunNative(func(env sdk.Env) error { return upmem.RunChecksum(env, p) })
	if err != nil {
		t.Fatal(err)
	}
	vp, err := h.RunVM(vmm.Full(), 16, func(env sdk.Env) error { return upmem.RunChecksum(env, p) })
	if err != nil {
		t.Fatal(err)
	}
	if nat.Total <= 0 || vp.Total <= nat.Total {
		t.Errorf("native=%v vpim=%v: virtualization must cost something", nat.Total, vp.Total)
	}
	if nat.Messages != 0 || len(nat.Counters) != 0 {
		t.Error("native runs have no virtio path to count")
	}
	if exits := vp.Counters["kvm.exits.notify"] + vp.Counters["kvm.exits.aggregated"]; exits == 0 || vp.Messages == 0 {
		t.Error("vPIM runs must count messages and exits")
	}
}

func TestTables(t *testing.T) {
	var buf bytes.Buffer
	h := smallHarness(&buf)
	h.Table1()
	h.Table2()
	out := buf.String()
	if strings.Count(out, "table1 ") != 16 {
		t.Errorf("Table 1 must list 16 applications:\n%s", out)
	}
	if strings.Count(out, "table2 ") != 9 {
		t.Errorf("Table 2 must list 9 variants:\n%s", out)
	}
}

// TestFigureSmoke runs each figure on the small machine and checks that its
// own output holds its own rows.
func TestFigureSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("figure smoke covers several full runs")
	}
	var buf bytes.Buffer
	h := smallHarness(&buf)
	for _, step := range []struct {
		row string
		run func() error
	}{
		{"fig8 app=RED ", func() error { return h.Fig8([]string{"RED"}) }},
		{"fig9a ", h.Fig9},
		{"fig12 ", h.Fig12},
		{"fig13 ", h.Fig13},
		{"fig15 ", h.Fig15},
		{"fig16 ", h.Fig16},
		{"boot ", h.BootOverhead},
		{"manager ", h.ManagerOverhead},
		{"memoverhead ", h.MemOverhead},
	} {
		buf.Reset()
		if err := step.run(); err != nil {
			t.Fatalf("%s: %v", step.row, err)
		}
		if !strings.Contains(buf.String(), "\n"+step.row) {
			t.Errorf("no %q rows:\n%s", step.row, buf.String())
		}
	}
}

// TestFig16Staircase: sequential handling finishes rank 1 after rank 0,
// parallel handling finishes every rank at the same virtual time.
func TestFig16Staircase(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-rank experiment")
	}
	var buf bytes.Buffer
	h := smallHarness(&buf)
	if err := h.Fig16(); err != nil {
		t.Fatal(err)
	}
	exec := make(map[string]time.Duration)
	for _, line := range strings.Split(buf.String(), "\n") {
		f := strings.Fields(line) // fig16 mode=M rank=R exec=Tms
		if len(f) != 4 || f[0] != "fig16" {
			continue
		}
		d, err := time.ParseDuration(strings.TrimPrefix(f[3], "exec="))
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		exec[f[1]+" "+f[2]] = d
	}
	if len(exec) != 4 {
		t.Fatalf("want 2 ranks x 2 modes of fig16 rows:\n%s", buf.String())
	}
	if seq0, seq1 := exec["mode=seq rank=0"], exec["mode=seq rank=1"]; seq1 <= seq0 {
		t.Errorf("sequential rank 1 (%v) must finish after rank 0 (%v)", seq1, seq0)
	}
	if par0, par1 := exec["mode=par rank=0"], exec["mode=par rank=1"]; par0 != par1 {
		t.Errorf("parallel ranks must finish together: %v vs %v", par0, par1)
	}
}

// TestTraceReconcilesWithTracker runs one PrIM workload on the vPIM variant
// with span recording on and checks that the exported spans account for
// exactly the virtual time the tracker attributed to every phase/op/step
// category — the invariant that makes the Chrome trace trustworthy.
func TestTraceReconcilesWithTracker(t *testing.T) {
	var buf bytes.Buffer
	h := smallHarness(&buf)
	mach, mgr, err := h.machine()
	if err != nil {
		t.Fatal(err)
	}
	vm, err := vmm.NewVM(mach, mgr, vmm.Config{Name: "rec", VUPMEMs: 2, Options: vmm.Full()})
	if err != nil {
		t.Fatal(err)
	}
	vm.EnableTracing()
	app, err := prim.Lookup("VA")
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Run(vm, prim.Params{DPUs: 8, Scale: 1}); err != nil {
		t.Fatal(err)
	}
	totals := vm.Recorder().CategoryTotals()
	snap := vm.Tracker().Snapshot()
	for cat, d := range snap {
		if d > 0 && totals[cat] != d {
			t.Errorf("category %s: trace spans total %v, tracker %v", cat, totals[cat], d)
		}
	}
	for cat, d := range totals {
		if snap[cat] != d {
			t.Errorf("category %s: trace spans total %v not in tracker (%v)", cat, d, snap[cat])
		}
	}
	var export struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(vm.TraceJSON(), &export); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	if len(export.TraceEvents) == 0 {
		t.Error("trace export is empty")
	}
}

// TestTraceExportDeterministic: two identical runs must export byte-identical
// traces (the CI smoke job diffs two fresh processes the same way).
func TestTraceExportDeterministic(t *testing.T) {
	export := func() []byte {
		var out bytes.Buffer
		h := smallHarness(&bytes.Buffer{})
		if err := h.TraceExport(&out, "VA"); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	a, b := export(), export()
	if !bytes.Equal(a, b) {
		t.Fatalf("identical runs exported different traces (%d vs %d bytes)", len(a), len(b))
	}
	if !json.Valid(a) {
		t.Error("export is not valid JSON")
	}
}
