package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// A traced run writes the spans of its first spanOps ops to
// spanDir/<workload>.jsonl, relative to the working directory.
const (
	spanOps = 1000
	spanDir = ".bench_build/spans"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: prim-fig8, xfer-bulk, xfer-small or tenants")
		seed    = flag.Int64("seed", 1, "workload seed (>= 0); the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "how long one run measures")
		traceOn = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	)
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *seed < 0 || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seed >= 0, --seconds > 0 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, traced: *traceOn == 1}
	res, err := run(w, cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// loopStats is what one timed loop measured.
type loopStats struct {
	ops, failed int
	lats        []float64 // ns per op
	wall        time.Duration
	// marks[i] is a wall time at which a pass ended and opsAt[i] the ops
	// finished by then; they split the run into chunks (see throughput).
	marks      []time.Duration
	opsAt      []int
	start, end state
	// checkSteps steps had run when check was taken: the determinism
	// checkpoint, covering at least workload.checkOps ops.
	checkSteps int
	check      state
	allocBytes uint64
	gcCycles   uint64
	cpu        time.Duration
	peakLive   uint64
}

// measure runs inst's steps until seconds have passed, at least checkOps
// ops have run and the current pass is complete.
func measure(w *workload, inst instance, seconds float64, out io.Writer) loopStats {
	ls := loopStats{start: inst.state()}
	runtime.GC()
	stopPeak := sampleLiveHeap()
	rt0 := readRuntime()
	cpu0 := cpuTime()
	dur := time.Duration(seconds * float64(time.Second))
	chunk := dur / throughputChunks
	next := chunk
	// Latencies go to fixed-size blocks, so the benchmark's own memory grows
	// smoothly instead of in append's doublings, which mem_peak_mib would see.
	var blocks [][]float64
	block := make([]float64, 0, latencyBlock)
	start := time.Now()
	for step := 0; ; step++ {
		if step%w.pass == 0 && ls.ops >= w.checkOps && time.Since(start) >= dur {
			break
		}
		for _, r := range inst.step(step) {
			if len(block) == latencyBlock {
				blocks = append(blocks, block)
				block = make([]float64, 0, latencyBlock)
			}
			block = append(block, float64(r.lat))
			ls.ops++
			if r.err != nil {
				ls.failed++
				if ls.failed <= 5 {
					fmt.Fprintf(out, "# op %d failed: %v\n", ls.ops-1, r.err)
				}
			}
		}
		if (step+1)%w.pass == 0 {
			if now := time.Since(start); now >= next {
				ls.marks = append(ls.marks, now)
				ls.opsAt = append(ls.opsAt, ls.ops)
				for next <= now {
					next += chunk
				}
			}
		}
		if ls.checkSteps == 0 && ls.ops >= w.checkOps {
			ls.checkSteps = step + 1
			ls.check = inst.state()
		}
	}
	ls.wall = time.Since(start)
	if n := len(ls.opsAt); n == 0 || ls.opsAt[n-1] < ls.ops {
		ls.marks = append(ls.marks, ls.wall)
		ls.opsAt = append(ls.opsAt, ls.ops)
	}
	ls.cpu = cpuTime() - cpu0
	rt1 := readRuntime()
	ls.allocBytes = rt1.allocBytes - rt0.allocBytes
	ls.gcCycles = rt1.gcCycles - rt0.gcCycles
	ls.peakLive = stopPeak()
	ls.end = inst.state()
	ls.lats = make([]float64, 0, ls.ops)
	for _, b := range append(blocks, block) {
		ls.lats = append(ls.lats, b...)
	}
	return ls
}

// throughputChunks is how many chunks of equal length throughput splits a
// run into. Host interference on a shared machine comes in bursts; the
// median chunk is immune to a burst that spoils a few chunks.
const throughputChunks = 10

// latencyBlock is the number of op latencies one sample block holds.
const latencyBlock = 1 << 16

// throughput is the median over chunks of the run of ops per second. A
// chunk ends at a pass boundary, so a run of one pass is one chunk.
// latency takes its percentiles per chunk the same way.
func (ls loopStats) throughput() float64 { return median(ls.chunkRates()) }

// latency is the median over chunks of the run of each chunk's
// q-quantile op latency, in ns.
func (ls loopStats) latency(q float64) float64 {
	qs := make([]float64, len(ls.opsAt))
	prev := 0
	for i, n := range ls.opsAt {
		qs[i] = percentile(ls.lats[prev:n], q)
		prev = n
	}
	return median(qs)
}

func (ls loopStats) chunkRates() []float64 {
	rates := make([]float64, len(ls.marks))
	prevT, prevOps := time.Duration(0), 0
	for i, t := range ls.marks {
		rates[i] = float64(ls.opsAt[i]-prevOps) / (t - prevT).Seconds()
		prevT, prevOps = t, ls.opsAt[i]
	}
	return rates
}

// replay sets up a fresh instance and runs steps steps untimed, returning
// its state after set-up and at the end.
func replay(w *workload, seed int64, mode envMode, steps int) (before, after state, err error) {
	inst, err := w.newInstance(seed, mode, nil)
	if err != nil {
		return state{}, state{}, err
	}
	before = inst.state()
	for i := 0; i < steps; i++ {
		for _, r := range inst.step(i) {
			if r.err != nil {
				return state{}, state{}, fmt.Errorf("replay step %d: %w", i, r.err)
			}
		}
	}
	return before, inst.state(), nil
}

func run(w *workload, cfg runConfig, out io.Writer) (result, error) {
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%g trace=%d gomaxprocs=%d numcpu=%d go=%s\n",
		w.name, cfg.seed, cfg.seconds, b2i(cfg.traced), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	fmt.Fprintf(out, "# why: %s\n", w.why)
	if cfg.traced {
		return runTraced(w, cfg, out)
	}
	return runUntraced(w, cfg, out)
}

// runUntraced measures the end-to-end metrics, then replays the checkpoint
// on a fresh vPIM twin (determinism) and a native twin (virt_overhead_x).
func runUntraced(w *workload, cfg runConfig, out io.Writer) (result, error) {
	var setups []float64
	var inst instance
	for r := 0; r < w.setupReps; r++ {
		// Return the previous set-up's memory to the OS, so every repetition
		// starts from the same state and pays the same page faults.
		inst = nil
		debug.FreeOSMemory()
		t0 := time.Now()
		var err error
		if inst, err = w.newInstance(cfg.seed, modeVPIM, nil); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	ls := measure(w, inst, cfg.seconds, out)
	overhead, own := 0.0, false
	if p, ok := inst.(interface{ overhead() (float64, bool) }); ok {
		overhead, own = p.overhead()
	}
	inst = nil
	runtime.GC()

	failed := ls.failed
	if w.exempt {
		fmt.Fprintf(out, "# determinism: not checked on %s (rank admission waits on real timers)\n", w.name)
	} else if n := checkTwin(w, cfg.seed, ls, out); n > 0 {
		failed += n
	}
	if !own {
		_, nat, err := replay(w, cfg.seed, modeNative, ls.checkSteps)
		if err != nil {
			return result{}, fmt.Errorf("native twin: %w", err)
		}
		vp := ls.check.phaseNS() - ls.start.phaseNS()
		vops := ls.check.ops - ls.start.ops
		if nat.phaseNS() > 0 && nat.ops > 0 && vops > 0 {
			overhead = (float64(vp) / float64(vops)) / (float64(nat.phaseNS()) / float64(nat.ops))
		}
	}

	m := endToEnd(ls, median(setups), overhead)
	fmt.Fprintf(out, "# setup_s is the median of %d set-ups: %v\n", len(setups), fmtFloats(setups))
	fmt.Fprintf(out, "# ops=%d failed=%d fail_ratio=%g wall_s=%.3f max_rss_mib=%.0f\n", ls.ops, failed, ratio(float64(failed), float64(ls.ops)), ls.wall.Seconds(), maxRSSMiB())
	fmt.Fprintf(out, "# op_p99_ms=%.6g (%d samples beyond it)\n", percentile(ls.lats, 0.99)/nsPerMS, len(ls.lats)/100)
	fmt.Fprintf(out, "# ops_per_s by chunk: %s\n", fmtFloats(ls.chunkRates()))
	if w.name == "prim-fig8" {
		fmt.Fprintf(out, "# virt_overhead_x %.4f vs the paper's 60-DPU reference: avg 1.24x, range 1.01-2.07x. The model reproduces shape, not magnitude, at these dataset scales.\n", overhead)
	}
	printMetrics(out, "end-to-end", m)
	printMetrics(out, "per-layer (virtual side, untraced)", virtualLayer(ls))
	return result{Correct: failed == 0, Attempted: ls.ops, Failed: failed, Metrics: m}, nil
}

// checkTwin replays the checkpoint on a fresh untraced vPIM instance and
// counts each disagreement, after set-up or at the checkpoint, as a failure.
func checkTwin(w *workload, seed int64, ls loopStats, out io.Writer) int {
	before, after, err := replay(w, seed, modeVPIM, ls.checkSteps)
	if err != nil {
		fmt.Fprintf(out, "# determinism: twin failed: %v\n", err)
		return 1
	}
	bad := 0
	for _, c := range []struct {
		what string
		a, b state
	}{{"after set-up", ls.start, before}, {fmt.Sprintf("after %d steps", ls.checkSteps), ls.check, after}} {
		if d := diff(c.a, c.b); len(d) > 0 {
			bad++
			fmt.Fprintf(out, "# determinism: twin disagrees %s: %v\n", c.what, d)
		}
	}
	if bad == 0 {
		fmt.Fprintf(out, "# determinism: ok (twin matched %d virtual categories and %d counters after %d steps)\n",
			len(ls.check.virt), len(ls.check.counters), ls.checkSteps)
	}
	return bad
}

// runTraced measures half the run untraced and half traced, on two fresh
// instances from the same seed. The traced half gives the per-layer host
// times; the untraced half the runtime figures and the tracing overhead;
// their checkpoints must agree.
func runTraced(w *workload, cfg runConfig, out io.Writer) (result, error) {
	half := cfg.seconds / 2
	inst, err := w.newInstance(cfg.seed, modeVPIM, nil)
	if err != nil {
		return result{}, err
	}
	plain := measure(w, inst, half, out)
	inst = nil
	runtime.GC()

	tr := newTracer(spanOps)
	if inst, err = w.newInstance(cfg.seed, modeVPIM, tr); err != nil {
		return result{}, err
	}
	tl := measure(w, inst, half, out)

	failed := plain.failed + tl.failed
	m := virtualLayer(tl)
	for k, v := range hostLayer(tr, tl, plain) {
		m[k] = v
	}
	// A step always runs the same number of ops, so both halves took their
	// checkpoint after the same steps.
	a, b := plain.check, tl.check
	if w.exempt {
		fmt.Fprintf(out, "# determinism: not checked on %s; traced vs untraced virtual phase time differs by %.4f\n",
			w.name, relDiff(float64(b.phaseNS()), float64(a.phaseNS())))
	} else if d := diff(a, b); len(d) > 0 {
		failed++
		fmt.Fprintf(out, "# determinism: traced and untraced runs disagree: %v\n", d)
	} else {
		fmt.Fprintf(out, "# determinism: ok (traced and untraced runs matched %d virtual categories and %d counters after %d steps)\n",
			len(a.virt), len(a.counters), plain.checkSteps)
	}
	m["check.twin_virt_diff"] = metric{relDiff(float64(b.phaseNS()), float64(a.phaseNS())), "ratio"}

	fmt.Fprintf(out, "# ops untraced=%d traced=%d failed=%d\n", plain.ops, tl.ops, failed)
	top, share := topLayer(tr)
	fmt.Fprintf(out, "# top host layer: %s (%.1f%% of traced op wall time)\n", top, 100*share)
	printMetrics(out, "per-layer", m)
	spanFile := filepath.Join(spanDir, w.name+".jsonl")
	if err := tr.writeSpans(spanFile); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(out, "# spans of the first %d traced ops written to %s\n", spanOps, spanFile)
	return result{Correct: failed == 0, Attempted: plain.ops + tl.ops, Failed: failed, Metrics: m}, nil
}

// --- host measurements -------------------------------------------------

type runtimeCounters struct {
	allocBytes, gcCycles uint64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return runtimeCounters{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
}

// sampleLiveHeap polls the live heap (bytes marked reachable by the last
// GC) every millisecond until the returned stop function is called, which
// reports the peak.
func sampleLiveHeap() (stop func() uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var peak uint64
	read := func() {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > peak {
			peak = v
		}
	}
	read()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				read()
			}
		}
	}()
	return func() uint64 {
		close(done)
		wg.Wait()
		read()
		return peak
	}
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMiB is the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// --- small helpers -----------------------------------------------------

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func relDiff(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return math.Abs(a-b) / b
}

func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile is the q-quantile of v, interpolated linearly between the
// closest ranks (v is not modified).
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func fmtFloats(v []float64) string {
	out := ""
	for i, x := range v {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.4f", x)
	}
	return out
}

func sortedKeys(maps ...map[string]int64) []string {
	seen := make(map[string]bool)
	var keys []string
	for _, m := range maps {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

func printMetrics(out io.Writer, title string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "# %s\n", title)
	for _, k := range names {
		fmt.Fprintf(out, "%-36s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}
