// Command vpim-bench regenerates the paper's tables and figures (Section 5)
// as textual series. Every row reports deterministic virtual-time
// measurements; see EXPERIMENTS.md for the paper-vs-measured record.
//
// Usage:
//
//	vpim-bench -fig all                 # everything, paper order
//	vpim-bench -fig 14                  # one figure
//	vpim-bench -fig 8 -apps VA,NW       # Fig 8 for selected applications
//	vpim-bench -list -variants          # Table 1 and Table 2
//	vpim-bench -trace va.json           # Chrome trace of one vPIM VA run
//
// The -trace export is deterministic: running it twice with identical flags
// yields byte-identical files (CI diffs two runs to catch regressions). Load
// the file in chrome://tracing or https://ui.perfetto.dev.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	var (
		fig      = flag.String("fig", "", "figure to regenerate: 8, 9, 10, 11, 12, 13, 14, 15, 16, boot, manager, mem, or 'all'")
		apps     = flag.String("apps", "", "comma-separated PrIM short names for -fig 8 (default: all 16)")
		list     = flag.Bool("list", false, "print Table 1 (PrIM applications)")
		variants = flag.Bool("variants", false, "print Table 2 (vPIM variants)")
		ranks    = flag.Int("ranks", 8, "physical ranks on the machine")
		dpus     = flag.Int("dpus", 60, "functional DPUs per rank")
		mram     = flag.Int64("mram", 0, "per-DPU MRAM bytes (0 = 64 MB)")
		scale    = flag.Int("scale", 1, "PrIM dataset scale factor")
		weak     = flag.Bool("weak", false, "PrIM weak scaling (per-DPU share constant) for -fig 8")
		ckdiv    = flag.Int("checksum-divisor", 4, "divide checksum sizes by this (1 = paper's 8-60 MB per DPU)")
		traceOut = flag.String("trace", "", "write a Chrome trace of one vPIM run to this file")
		traceApp = flag.String("trace-app", "VA", "PrIM application for -trace")
		fig13Out = flag.String("fig13-json", "", "write the Fig 13 step breakdown as JSON to this file")
	)
	flag.Parse()

	cfg := bench.Config{
		Ranks:           *ranks,
		DPUsPerRank:     *dpus,
		MRAMBytes:       *mram,
		Scale:           *scale,
		Weak:            *weak,
		ChecksumDivisor: *ckdiv,
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, *traceApp, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "vpim-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *fig13Out != "" {
		if err := writeFig13JSON(*fig13Out, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "vpim-bench:", err)
			os.Exit(1)
		}
		return
	}

	if err := run(os.Stdout, *fig, *apps, *list, *variants, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "vpim-bench:", err)
		os.Exit(1)
	}
}

// writeTrace runs one PrIM workload on the fully-optimized vPIM variant with
// span recording enabled and writes the Chrome trace-event JSON to path.
func writeTrace(path, app string, cfg bench.Config) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	h := bench.New(io.Discard, cfg)
	if err := h.TraceExport(f, app); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// writeFig13JSON runs the Fig 13 experiment and writes the structured
// export (step breakdown + counters, nanosecond integers) to path. The
// output is deterministic for a given flag set, so the committed
// BENCH_fig13.json can be regenerated and diffed.
func writeFig13JSON(path string, cfg bench.Config) error {
	h := bench.New(io.Discard, cfg)
	exp, err := h.Fig13Data()
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func run(w io.Writer, fig, apps string, list, variants bool, cfg bench.Config) error {
	h := bench.New(w, cfg)
	if list {
		h.Table1()
	}
	if variants {
		h.Table2()
	}
	if fig == "" {
		if !list && !variants {
			flag.Usage()
		}
		return nil
	}
	var appList []string
	if apps != "" {
		appList = strings.Split(apps, ",")
	}
	switch fig {
	case "all":
		return h.All()
	case "8":
		return h.Fig8(appList)
	case "9":
		return h.Fig9()
	case "10":
		return h.Fig10()
	case "11":
		return h.Fig11()
	case "12":
		return h.Fig12()
	case "13":
		return h.Fig13()
	case "14":
		return h.Fig14()
	case "15":
		return h.Fig15()
	case "16":
		return h.Fig16()
	case "boot":
		return h.BootOverhead()
	case "manager":
		return h.ManagerOverhead()
	case "mem":
		return h.MemOverhead()
	default:
		return fmt.Errorf("unknown figure %q", fig)
	}
}
