package main

import (
	"bytes"
	"fmt"
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

// TestCommittedFigures regenerates the figures that are cheap at the default
// configuration, the one results/all_figures.txt was run at, under
// GOMAXPROCS 1 and 4. Each block of rows, from its "# " header to the next,
// must equal the committed file's block byte for byte: every virtual time is
// printed to the nanosecond, so any change to the clock fails here. The
// costly figures (8-11, 14 and 16) are held by CI's diff of the whole run.
func TestCommittedFigures(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "results", "all_figures.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := blocks(string(data))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		var out bytes.Buffer
		if err := run(&out, "", "", true, true, bench.Config{}); err != nil {
			t.Fatal(err)
		}
		for _, fig := range []string{"12", "13", "15", "boot", "manager", "mem"} {
			if err := run(&out, fig, "", false, false, bench.Config{}); err != nil {
				t.Fatalf("-fig %s: %v", fig, err)
			}
		}
		got := blocks(out.String())
		if len(got) != 8 {
			t.Fatalf("GOMAXPROCS=%d: %d blocks, want 8:\n%s", procs, len(got), out.String())
		}
		for header, block := range got {
			if block != want[header] {
				t.Errorf("GOMAXPROCS=%d: %s differs from results/all_figures.txt\n%s",
					procs, strings.TrimSpace(header), firstDiff(block, want[header]))
			}
		}
	}
}

// blocks splits figure output into blocks keyed by their "# " header line.
func blocks(out string) map[string]string {
	m := make(map[string]string)
	header := ""
	for _, line := range strings.SplitAfter(out, "\n") {
		if strings.HasPrefix(line, "# ") {
			header = line
		}
		m[header] += line
	}
	return m
}

// firstDiff prints the first line at which two different blocks part.
func firstDiff(got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	i := 0
	for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
		i++
	}
	line := func(l []string) string {
		if i < len(l) {
			return l[i]
		}
		return "(no line)"
	}
	return fmt.Sprintf("line %d:\n got %s\nwant %s", i+1, line(gl), line(wl))
}
