package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bench"
)

func smallCfg() bench.Config {
	return bench.Config{Ranks: 2, DPUsPerRank: 8, MRAMBytes: 16 << 20, ChecksumDivisor: 60}
}

func TestRunTables(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "", "", true, true, smallCfg()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "table1 name=VA") {
		t.Error("Table 1 missing")
	}
	if !strings.Contains(out.String(), "table2 variant=vPIM-rust") {
		t.Error("Table 2 missing")
	}
}

func TestRunSingleFigure(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "12", "", false, false, smallCfg()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "fig12 variant=vPIM-rust") {
		t.Errorf("fig12 rows missing:\n%s", out.String())
	}
}

func TestRunFig8Subset(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "8", "RED", false, false, smallCfg()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "fig8 app=RED") {
		t.Error("fig8 subset missing")
	}
	if strings.Contains(out.String(), "fig8 app=VA") {
		t.Error("-apps filter ignored")
	}
}

func TestRunUnknownFigure(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "99", "", false, false, smallCfg()); err == nil {
		t.Error("unknown figure must fail")
	}
}

func TestRunUnknownApp(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "8", "NOPE", false, false, smallCfg()); err == nil {
		t.Error("unknown app must fail")
	}
}

// TestFig13ExportReproducible regenerates the Fig 13 export with the flags
// CI uses (-ranks 2 -dpus 8 -checksum-divisor 60) at GOMAXPROCS 1 and 4 and
// byte-compares each result with the committed BENCH_fig13.json: the export
// must be a function of those flags alone, not of the host's core count.
func TestFig13ExportReproducible(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "BENCH_fig13.json"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := bench.Config{Ranks: 2, DPUsPerRank: 8, Scale: 1, ChecksumDivisor: 60}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		path := filepath.Join(t.TempDir(), "fig13.json")
		if err := writeFig13JSON(path, cfg); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
			for i := range gl {
				if i >= len(wl) || gl[i] != wl[i] {
					t.Fatalf("GOMAXPROCS=%d: export differs from BENCH_fig13.json at line %d: got %q", procs, i+1, gl[i])
				}
			}
			t.Fatalf("GOMAXPROCS=%d: export is a truncated BENCH_fig13.json", procs)
		}
	}
}
