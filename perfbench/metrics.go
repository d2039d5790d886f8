package main

import (
	"strings"

	"repro/internal/trace"
)

const (
	nsPerMS = 1e6
	nsPerUS = 1e3
	mib     = 1 << 20
)

// endToEnd derives the end-to-end metrics of an untraced run.
func endToEnd(ls loopStats, setupS, overhead float64) map[string]metric {
	vops := float64(ls.end.ops - ls.start.ops)
	return map[string]metric{
		"setup_s":         {setupS, "s"},
		"ops_per_s":       {ls.throughput(), "1/s"},
		"op_p50_ms":       {ls.latency(0.50) / nsPerMS, "ms"},
		"op_p90_ms":       {ls.latency(0.90) / nsPerMS, "ms"},
		"mem_peak_mib":    {float64(ls.peakLive) / mib, "MiB"},
		"virt_ms_per_op":  {ratio(float64(ls.end.phaseNS()-ls.start.phaseNS()), vops) / nsPerMS, "vms"},
		"virt_overhead_x": {overhead, "x"},
	}
}

// virtualCategories maps Tracker categories to per-layer metric names.
var virtualCategories = []struct{ category, name string }{
	{trace.PhaseCPUDPU, "virt.phase.cpu_dpu_ms"},
	{trace.PhaseDPU, "virt.phase.dpu_ms"},
	{trace.PhaseInterDPU, "virt.phase.inter_dpu_ms"},
	{trace.PhaseDPUCPU, "virt.phase.dpu_cpu_ms"},
	{trace.OpWriteRank, "virt.op.w_rank_ms"},
	{trace.OpReadRank, "virt.op.r_rank_ms"},
	{trace.OpCI, "virt.op.ci_ms"},
	{trace.OpAlloc, "virt.op.alloc_ms"},
	{trace.OpCheckpoint, "virt.op.ckpt_ms"},
	{trace.OpRestore, "virt.op.restore_ms"},
	{trace.StepPage, "virt.step.page_ms"},
	{trace.StepSer, "virt.step.ser_ms"},
	{trace.StepInt, "virt.step.int_ms"},
	{trace.StepDeser, "virt.step.deser_ms"},
	{trace.StepTData, "virt.step.t_data_ms"},
}

// counterMetrics maps obs counters (device tags aggregated away) to
// per-op metric names. A name ending in '.' matches every counter under it.
var counterMetrics = []struct{ counter, name string }{
	{"frontend.messages", "driver.messages_per_op"},
	{"frontend.batch.appends", "driver.batch_appends_per_op"},
	{"frontend.batch.flushes", "driver.batch_flushes_per_op"},
	{"frontend.batch.fallbacks", "driver.batch_fallbacks_per_op"},
	{"frontend.control.roundtrips", "driver.control_roundtrips_per_op"},
	{"frontend.cache.lookups", "driver.cache_lookups_per_op"},
	{"kvm.exits.notify", "kvm.exits_per_op"},
	{"kvm.exits.aggregated", "kvm.exits_per_op"},
	{"kvm.irqs", "kvm.irqs_per_op"},
	{"kvm.exits.suppressed", "kvm.exits_suppressed_per_op"},
	{"backend.deser.rows", "backend.rows_per_op"},
	{"backend.deser.pages", "backend.pages_per_op"},
	{"backend.batch.records", "backend.batch_records_per_op"},
	{"backend.workers.busy", "backend.workers_busy_per_op"},
	{"hostmem.snapshot.swaps", "hostmem.snapshot_swaps_per_op"},
	{"manager.allocs.granted", "manager.granted_per_op"},
	{"manager.allocs.parked", "manager.parked_per_op"},
	{"manager.allocs.timedout", "manager.timedout_per_op"},
	{"manager.preemptions", "manager.preemptions_per_op"},
	{"manager.restores", "manager.restores_per_op"},
	{"manager.resets", "manager.resets_per_op"},
	{"manager.sched.wait", "manager.sched_wait_per_op"},
}

// virtualLayer derives the per-layer virtual-clock and counter metrics of
// a loop. They are per vPIM op and exact: the same seed and op count give
// the same values traced or untraced.
func virtualLayer(ls loopStats) map[string]metric {
	vops := float64(ls.end.ops - ls.start.ops)
	m := make(map[string]metric)
	for _, c := range virtualCategories {
		m[c.name] = metric{ratio(float64(ls.end.virt[c.category]-ls.start.virt[c.category]), vops) / nsPerMS, "vms"}
	}
	delta := func(name string) float64 {
		return float64(ls.end.counters[name] - ls.start.counters[name])
	}
	for _, c := range counterMetrics {
		m[c.name] = metric{m[c.name].Value + ratio(delta(c.counter), vops), "count"}
	}
	var chains, descs, copyBytes float64
	for name := range ls.end.counters {
		switch {
		case strings.HasPrefix(name, "virtio.") && strings.HasSuffix(name, ".chains"):
			chains += delta(name)
		case strings.HasPrefix(name, "virtio.") && strings.HasSuffix(name, ".descs"):
			descs += delta(name)
		case strings.HasPrefix(name, "backend.copy.bytes."):
			copyBytes += delta(name)
		}
	}
	m["virtio.chains_per_op"] = metric{ratio(chains, vops), "count"}
	m["virtio.descs_per_op"] = metric{ratio(descs, vops), "count"}
	m["backend.copy_mib_per_op"] = metric{ratio(copyBytes, vops) / mib, "MiB"}
	m["driver.cache_hit_ratio"] = metric{ratio(delta("frontend.cache.hits"), delta("frontend.cache.lookups")), "ratio"}
	m["manager.preempt_per_grant"] = metric{ratio(delta("manager.preemptions"), delta("manager.allocs.granted")), "ratio"}
	return m
}

// hostLayer derives the per-layer host times of the traced loop tl, plus
// the runtime figures and tracing overhead measured against the untraced
// loop plain.
func hostLayer(tr *tracer, tl, plain loopStats) map[string]metric {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	ops := float64(tr.ops)
	// Per-call times include set-up calls (that is where most
	// environments boot); per-op counts and times only the counted ops.
	call := func(names ...string) (c callStat) {
		for _, name := range names {
			if s := tr.calls[name]; s != nil {
				c.n += s.n
				c.ns += s.ns
				c.opN += s.opN
			}
		}
		return c
	}
	perCall := func(div float64, names ...string) float64 {
		c := call(names...)
		return ratio(float64(c.ns), float64(c.n)) / div
	}
	perOp := func(names ...string) float64 {
		return ratio(float64(call(names...).opN), ops)
	}
	m := make(map[string]metric)
	for _, layer := range hostLayers {
		m[layer+".self_ms_per_op"] = metric{ratio(float64(tr.self[layer]), ops) / nsPerMS, "ms"}
	}
	launch := []string{"pim.Launch", "pim.LaunchStart"}
	sym := []string{"driver.SymWrite", "driver.SymBroadcast", "driver.SymRead"}
	for k, v := range map[string]metric{
		"pim.launch_ms_per_op":         {perOp(launch...) * perCall(nsPerMS, launch...), "ms"},
		"pim.launch_calls_per_op":      {perOp(launch...), "count"},
		"driver.write_us_per_call":     {perCall(nsPerUS, "driver.WriteRank"), "us"},
		"driver.read_us_per_call":      {perCall(nsPerUS, "driver.ReadRank"), "us"},
		"driver.sym_us_per_call":       {perCall(nsPerUS, sym...), "us"},
		"driver.write_calls_per_op":    {perOp("driver.WriteRank"), "count"},
		"driver.read_calls_per_op":     {perOp("driver.ReadRank"), "count"},
		"driver.sym_calls_per_op":      {perOp(sym...), "count"},
		"native.write_us_per_call":     {perCall(nsPerUS, "native.WriteRank"), "us"},
		"native.read_us_per_call":      {perCall(nsPerUS, "native.ReadRank"), "us"},
		"native.env_ms":                {perCall(nsPerMS, "native.NewEnv"), "ms"},
		"vmm.boot_ms":                  {perCall(nsPerMS, "vmm.NewVM"), "ms"},
		"hostmem.allocbuf_us_per_call": {perCall(nsPerUS, "hostmem.AllocBuffer"), "us"},
		"manager.allocset_ms_per_call": {perCall(nsPerMS, "manager.AllocSet"), "ms"},
		"manager.free_ms_per_call":     {perCall(nsPerMS, "manager.Release"), "ms"},
		"runtime.alloc_mib_per_op":     {ratio(float64(plain.allocBytes), float64(plain.ops)) / mib, "MiB"},
		"runtime.gc_cycles_per_op":     {ratio(float64(plain.gcCycles), float64(plain.ops)), "count"},
		"host.cpu_ms_per_op":           {ratio(float64(plain.cpu), float64(plain.ops)) / nsPerMS, "ms"},
		"trace.untraced_ops_per_s":     {plain.throughput(), "1/s"},
		"trace.traced_ops_per_s":       {tl.throughput(), "1/s"},
		"trace.overhead_x":             {ratio(plain.throughput(), tl.throughput()), "x"},
		"trace.attributed_ratio":       {ratio(float64(tr.opWall), sum(tl.lats)), "ratio"},
		"op_p99_ms":                    {percentile(plain.lats, 0.99) / nsPerMS, "ms"},
	} {
		m[k] = v
	}
	return m
}

// topLayer names the layer with the most self time and its share of the
// traced ops' wall time.
func topLayer(tr *tracer) (string, float64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	best := ""
	for _, layer := range hostLayers {
		if best == "" || tr.self[layer] > tr.self[best] {
			best = layer
		}
	}
	return best, ratio(float64(tr.self[best]), float64(tr.opWall))
}

func sum(v []float64) float64 {
	var t float64
	for _, x := range v {
		t += x
	}
	return t
}
