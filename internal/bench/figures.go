package bench

import (
	"fmt"
	"time"

	"repro/internal/cost"
	"repro/internal/driver"
	"repro/internal/prim"
	"repro/internal/sdk"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/upmem"
	"repro/internal/vmm"
)

// phaseCols prints the four Fig. 8 segments of a result.
func phaseCols(r Result) string {
	return fmt.Sprintf("cpu-dpu=%sms dpu=%sms inter-dpu=%sms dpu-cpu=%sms",
		ms(r.Phases[trace.PhaseCPUDPU]), ms(r.Phases[trace.PhaseDPU]),
		ms(r.Phases[trace.PhaseInterDPU]), ms(r.Phases[trace.PhaseDPUCPU]))
}

// Fig8 reruns the PrIM strong-scaling experiment: every application at one
// rank and at all ranks, native vs vPIM, with the four-segment breakdown.
func (h *Harness) Fig8(apps []string) error {
	if len(apps) == 0 {
		apps = prim.Names()
	}
	oneRank := h.cfg.DPUsPerRank
	allRanks := h.cfg.Ranks * h.cfg.DPUsPerRank
	mode := "strong"
	if h.cfg.Weak {
		mode = "weak"
	}
	h.printf("# Fig 8: PrIM applications, %s scaling (%d and %d DPUs)\n", mode, oneRank, allRanks)
	for _, name := range apps {
		app, err := prim.Lookup(name)
		if err != nil {
			return err
		}
		for _, dpus := range []int{oneRank, allRanks} {
			p := prim.Params{DPUs: dpus, Scale: h.cfg.Scale, Weak: h.cfg.Weak}
			nat, err := h.RunNative(func(env sdk.Env) error { return app.Run(env, p) })
			if err != nil {
				return fmt.Errorf("fig8 %s native %d: %w", name, dpus, err)
			}
			vp, err := h.RunVM(vmm.Full(), 16, func(env sdk.Env) error { return app.Run(env, p) })
			if err != nil {
				return fmt.Errorf("fig8 %s vPIM %d: %w", name, dpus, err)
			}
			h.printf("fig8 app=%s dpus=%d native=%sms vpim=%sms overhead=%s\n",
				name, dpus, ms(nat.Total), ms(vp.Total), ratio(vp.Total, nat.Total))
			h.printf("fig8.phases app=%s dpus=%d env=native %s\n", name, dpus, phaseCols(nat))
			h.printf("fig8.phases app=%s dpus=%d env=vpim   %s\n", name, dpus, phaseCols(vp))
			h.printf("fig8.counters app=%s dpus=%d %s\n", name, dpus, counterCols(vp))
		}
	}
	return nil
}

// scaledSize divides a paper-scale byte count by the configured divisor,
// keeping 8-byte alignment.
func (h *Harness) scaledSize(bytes int) int {
	return (bytes / h.cfg.ChecksumDivisor) &^ 7
}

// checksumRun is the checksum application at one configuration.
func checksumRun(dpus, bytesPerDPU int) func(env sdk.Env) error {
	p := upmem.ChecksumParams{DPUs: dpus, BytesPerDPU: bytesPerDPU}
	return func(env sdk.Env) error { return upmem.RunChecksum(env, p) }
}

// checksumPairs returns a function that runs one checksum configuration
// natively and under opts with vcpus. It runs each distinct run once and
// hands a repeat the first result, as one figure's rows repeat runs: a
// point's native run does not depend on the VM's options or vCPUs, and
// Figs 9 and 11 reach their 60-DPU, 60 MB point from two sweeps. Runs are
// deterministic, so a reused result reads as a rerun would.
func (h *Harness) checksumPairs() func(dpus, bytesPerDPU, vcpus int, opts vmm.Options) (nat, vp Result, err error) {
	type point struct {
		dpus, bytes, vcpus int // vcpus 0 runs natively
		opts               vmm.Options
	}
	done := make(map[point]Result)
	once := func(pt point) (r Result, err error) {
		if r, ok := done[pt]; ok {
			return r, nil
		}
		if run := checksumRun(pt.dpus, pt.bytes); pt.vcpus == 0 {
			r, err = h.RunNative(run)
		} else {
			r, err = h.RunVM(pt.opts, pt.vcpus, run)
		}
		if err == nil {
			done[pt] = r
		}
		return r, err
	}
	return func(dpus, bytesPerDPU, vcpus int, opts vmm.Options) (nat, vp Result, err error) {
		if nat, err = once(point{dpus: dpus, bytes: bytesPerDPU}); err != nil {
			return nat, vp, err
		}
		vp, err = once(point{dpus, bytesPerDPU, vcpus, opts})
		return nat, vp, err
	}
}

// Fig9 is the checksum sensitivity analysis: (a) #vCPUs, (b) #DPUs, (c)
// transfer size per DPU.
func (h *Harness) Fig9() error {
	size := h.scaledSize(60 << 20)
	h.printf("# Fig 9: checksum sensitivity (sizes scaled 1/%d)\n", h.cfg.ChecksumDivisor)
	checksum := h.checksumPairs()
	for _, vcpus := range []int{2, 4, 8, 16} {
		nat, vp, err := checksum(h.cfg.DPUsPerRank, size, vcpus, vmm.Full())
		if err != nil {
			return fmt.Errorf("fig9a: %w", err)
		}
		h.printf("fig9a vcpus=%d native=%sms vpim=%sms overhead=%s\n",
			vcpus, ms(nat.Total), ms(vp.Total), ratio(vp.Total, nat.Total))
	}
	for _, dpus := range []int{1, 8, 16, h.cfg.DPUsPerRank} {
		nat, vp, err := checksum(dpus, size, 16, vmm.Full())
		if err != nil {
			return fmt.Errorf("fig9b: %w", err)
		}
		h.printf("fig9b dpus=%d native=%sms vpim=%sms overhead=%s\n",
			dpus, ms(nat.Total), ms(vp.Total), ratio(vp.Total, nat.Total))
	}
	for _, mb := range []int{8, 20, 40, 60} {
		nat, vp, err := checksum(h.cfg.DPUsPerRank, h.scaledSize(mb<<20), 16, vmm.Full())
		if err != nil {
			return fmt.Errorf("fig9c: %w", err)
		}
		h.printf("fig9c sizeMB=%d native=%sms vpim=%sms overhead=%s\n",
			mb, ms(nat.Total), ms(vp.Total), ratio(vp.Total, nat.Total))
	}
	return nil
}

// Fig10 sweeps the Index Search DPU count.
func (h *Harness) Fig10() error {
	h.printf("# Fig 10: Index Search execution time vs #DPUs\n")
	for _, dpus := range []int{1, 8, 16, h.cfg.DPUsPerRank, 128} {
		if dpus > h.cfg.Ranks*h.cfg.DPUsPerRank {
			continue
		}
		p := upmem.IndexSearchParams{DPUs: dpus}
		nat, err := h.RunNative(func(env sdk.Env) error { return upmem.RunIndexSearch(env, p) })
		if err != nil {
			return fmt.Errorf("fig10 native %d: %w", dpus, err)
		}
		vp, err := h.RunVM(vmm.Full(), 16, func(env sdk.Env) error { return upmem.RunIndexSearch(env, p) })
		if err != nil {
			return fmt.Errorf("fig10 vPIM %d: %w", dpus, err)
		}
		h.printf("fig10 dpus=%d native=%sms vpim=%sms overhead=%s\n",
			dpus, ms(nat.Total), ms(vp.Total), ratio(vp.Total, nat.Total))
	}
	return nil
}

// Fig11 compares vPIM-rust against vPIM-C on checksum: (a) varying #DPUs at
// a fixed size, (b) varying size at one rank.
func (h *Harness) Fig11() error {
	size := h.scaledSize(60 << 20)
	h.printf("# Fig 11: C enhancement (sizes scaled 1/%d)\n", h.cfg.ChecksumDivisor)
	rust, errV := vmm.Variant("vPIM-rust")
	if errV != nil {
		return errV
	}
	cOpts, errV := vmm.Variant("vPIM-C")
	if errV != nil {
		return errV
	}
	checksum := h.checksumPairs()
	for _, dpus := range []int{1, 16, h.cfg.DPUsPerRank} {
		nat, vr, err := checksum(dpus, size, 16, rust)
		if err != nil {
			return fmt.Errorf("fig11a rust: %w", err)
		}
		_, vc, err := checksum(dpus, size, 16, cOpts)
		if err != nil {
			return fmt.Errorf("fig11a C: %w", err)
		}
		h.printf("fig11a dpus=%d native=%sms vpim-rust=%sms vpim-c=%sms rust-overhead=%s c-overhead=%s\n",
			dpus, ms(nat.Total), ms(vr.Total), ms(vc.Total),
			ratio(vr.Total, nat.Total), ratio(vc.Total, nat.Total))
	}
	for _, mb := range []int{8, 40, 60} {
		sz := h.scaledSize(mb << 20)
		nat, vr, err := checksum(h.cfg.DPUsPerRank, sz, 16, rust)
		if err != nil {
			return fmt.Errorf("fig11b rust: %w", err)
		}
		_, vc, err := checksum(h.cfg.DPUsPerRank, sz, 16, cOpts)
		if err != nil {
			return fmt.Errorf("fig11b C: %w", err)
		}
		h.printf("fig11b sizeMB=%d native=%sms vpim-rust=%sms vpim-c=%sms rust-overhead=%s c-overhead=%s\n",
			mb, ms(nat.Total), ms(vr.Total), ms(vc.Total),
			ratio(vr.Total, nat.Total), ratio(vc.Total, nat.Total))
	}
	return nil
}

// Fig12 prints the driver-centric breakdown (CI / R-rank / W-rank) of the
// checksum run for vPIM-rust and vPIM.
func (h *Harness) Fig12() error {
	size := h.scaledSize(8 << 20)
	h.printf("# Fig 12: driver-centric breakdown (checksum, %d DPUs)\n", h.cfg.DPUsPerRank)
	for _, variant := range []string{"vPIM-rust", "vPIM"} {
		opts, err := vmm.Variant(variant)
		if err != nil {
			return err
		}
		vp, err := h.RunVM(opts, 16, checksumRun(h.cfg.DPUsPerRank, size))
		if err != nil {
			return fmt.Errorf("fig12 %s: %w", variant, err)
		}
		h.printf("fig12 variant=%s ci=%sms r-rank=%sms w-rank=%sms\n",
			variant, ms(vp.Ops[trace.OpCI]), ms(vp.Ops[trace.OpReadRank]), ms(vp.Ops[trace.OpWriteRank]))
		h.printf("fig12.counters variant=%s %s\n", variant, counterCols(vp))
	}
	return nil
}

// Fig13 prints the write-to-rank step breakdown (Page / Deser / Int / Ser /
// T-data) of the checksum run, one row per lane: the paper's vPIM-rust and
// vPIM-C, then vPIM and the two extensions layered on it. Each extension is
// vPIM plus one option and names that exact twin. Checksum pushes one shared
// buffer to every DPU, so broadcast shrinks the Page/Ser/Deser lanes while
// T-data stays put.
func (h *Harness) Fig13() error {
	size := h.scaledSize(8 << 20)
	h.printf("# Fig 13: write-to-rank step breakdown (checksum)\n")
	for _, lane := range []struct{ variant, twin string }{
		{"vPIM-rust", ""}, {"vPIM-C", ""}, {"vPIM", ""},
		{"vPIM-pipe", "vPIM"}, {"vPIM-bcast", "vPIM"},
	} {
		opts, err := vmm.Variant(lane.variant)
		if err != nil {
			return err
		}
		vp, err := h.RunVM(opts, 16, checksumRun(h.cfg.DPUsPerRank, size))
		if err != nil {
			return fmt.Errorf("fig13 %s: %w", lane.variant, err)
		}
		label := lane.variant
		if lane.twin != "" {
			label += " twin=" + lane.twin
		}
		h.printf("fig13 variant=%s total=%sms page=%sms deser=%sms int=%sms ser=%sms t-data=%sms\n",
			label, ms(vp.Total), ms(vp.Steps[trace.StepPage]), ms(vp.Steps[trace.StepDeser]),
			ms(vp.Steps[trace.StepInt]), ms(vp.Steps[trace.StepSer]), ms(vp.Steps[trace.StepTData]))
		h.printf("fig13.counters variant=%s %s\n", lane.variant, counterCols(vp))
	}
	return nil
}

// Fig14 evaluates the prefetch-cache and request-batching optimizations on
// NW (the worst-case workload).
func (h *Harness) Fig14() error {
	h.printf("# Fig 14: NW with prefetch/batching variants (single rank)\n")
	p := prim.Params{DPUs: h.cfg.DPUsPerRank, Scale: h.cfg.Scale}
	app, err := prim.Lookup("NW")
	if err != nil {
		return err
	}
	nat, err := h.RunNative(func(env sdk.Env) error { return app.Run(env, p) })
	if err != nil {
		return fmt.Errorf("fig14 native: %w", err)
	}
	h.printf("fig14 variant=native total=%sms %s\n", ms(nat.Total), phaseCols(nat))
	var base time.Duration
	for _, variant := range []string{"vPIM-C", "vPIM+P", "vPIM+B", "vPIM+PB"} {
		opts, err := vmm.Variant(variant)
		if err != nil {
			return err
		}
		vp, err := h.RunVM(opts, 16, func(env sdk.Env) error { return app.Run(env, p) })
		if err != nil {
			return fmt.Errorf("fig14 %s: %w", variant, err)
		}
		if variant == "vPIM-C" {
			base = vp.Total
		}
		h.printf("fig14 variant=%s total=%sms perf-inc=%s overhead-vs-native=%s msgs=%d %s\n",
			variant, ms(vp.Total), ratio(base, vp.Total), ratio(vp.Total, nat.Total),
			vp.Messages, phaseCols(vp))
		h.printf("fig14.counters variant=%s %s\n", variant, counterCols(vp))
	}
	return nil
}

// Fig15 evaluates parallel operation handling on 2/4/8 ranks (checksum).
func (h *Harness) Fig15() error {
	size := h.scaledSize(8 << 20)
	h.printf("# Fig 15: parallel multi-rank handling (checksum)\n")
	seq, err := vmm.Variant("vPIM-Seq")
	if err != nil {
		return err
	}
	for _, ranks := range []int{2, 4, 8} {
		if ranks > h.cfg.Ranks {
			continue
		}
		run := checksumRun(ranks*h.cfg.DPUsPerRank, size)
		sres, err := h.RunVM(seq, 16, run)
		if err != nil {
			return fmt.Errorf("fig15 seq %d: %w", ranks, err)
		}
		pres, err := h.RunVM(vmm.Full(), 16, run)
		if err != nil {
			return fmt.Errorf("fig15 par %d: %w", ranks, err)
		}
		h.printf("fig15 ranks=%d seq=%sms par=%sms speedup=%s seq-wrank=%sms par-wrank=%sms wrank-speedup=%s\n",
			ranks, ms(sres.Total), ms(pres.Total), ratio(sres.Total, pres.Total),
			ms(sres.Ops[trace.OpWriteRank]), ms(pres.Ops[trace.OpWriteRank]),
			ratio(sres.Ops[trace.OpWriteRank], pres.Ops[trace.OpWriteRank]))
	}
	return nil
}

// Fig16 measures the per-rank virtio request time of one write-to-rank
// spanning all ranks, sequential vs parallel handling.
func (h *Harness) Fig16() error {
	h.printf("# Fig 16: per-rank virtio request time of one multi-rank write\n")
	size := h.scaledSize(8 << 20)
	seq, err := vmm.Variant("vPIM-Seq")
	if err != nil {
		return err
	}
	for _, tc := range []struct {
		label string
		opts  vmm.Options
	}{{"seq", seq}, {"par", vmm.Full()}} {
		var durs []time.Duration
		_, err := h.RunVM(tc.opts, 16, func(env sdk.Env) error {
			set, err := env.AllocSet(h.cfg.Ranks * h.cfg.DPUsPerRank)
			if err != nil {
				return err
			}
			defer func() { _ = set.Free() }()
			devs := set.Devices()
			entries := make([][]sdk.DPUXfer, len(devs))
			for i, dev := range devs {
				for d := 0; d < dev.NumDPUs(); d++ {
					buf, err := env.AllocBuffer(size)
					if err != nil {
						return err
					}
					entries[i] = append(entries[i], sdk.DPUXfer{DPU: d, Buf: buf})
				}
			}
			errs := make([]error, len(devs))
			durs = env.Timeline().ParNDur(len(devs), func(i int, tl *simtime.Timeline) {
				errs[i] = devs[i].WriteRank(entries[i], 0, size, tl)
			})
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("fig16 %s: %w", tc.label, err)
		}
		for i, d := range durs {
			h.printf("fig16 mode=%s rank=%d exec=%sms\n", tc.label, i, ms(d))
		}
	}
	return nil
}

// Table1 lists the PrIM applications.
func (h *Harness) Table1() {
	h.printf("# Table 1: PrIM applications\n")
	for _, app := range prim.Apps() {
		h.printf("table1 name=%s domain=%q full=%q\n", app.Name, app.Domain, app.Full)
	}
}

// Table2 lists the optimization matrix.
func (h *Harness) Table2() {
	h.printf("# Table 2: vPIM variants\n")
	for _, name := range vmm.Variants() {
		opts, err := vmm.Variant(name)
		if err != nil {
			continue
		}
		h.printf("table2 variant=%s c-enhancement=%v prefetch=%v batching=%v parallel=%v\n",
			name, opts.Engine != cost.EngineRust, opts.Prefetch, opts.Batch, opts.Parallel)
	}
}

// BootOverhead measures the boot-time cost of adding vUPMEM devices
// (Section 3.2: <= 2 ms per device).
func (h *Harness) BootOverhead() error {
	h.printf("# Boot overhead per vUPMEM device (Section 3.2)\n")
	mach, mgr, err := h.machine()
	if err != nil {
		return err
	}
	var prev time.Duration
	for _, n := range []int{1, 2, 4, 8} {
		if n > mach.NumRanks() {
			break
		}
		vm, err := vmm.NewVM(mach, mgr, vmm.Config{Name: "boot", VUPMEMs: n, Options: vmm.Full()})
		if err != nil {
			return err
		}
		h.printf("boot devices=%d boot=%sms delta=%sms\n", n, ms(vm.BootTime()), ms(vm.BootTime()-prev))
		prev = vm.BootTime()
	}
	return nil
}

// ManagerOverhead measures allocation latency and reset cost (Section 4.2).
func (h *Harness) ManagerOverhead() error {
	h.printf("# Manager overhead (Section 4.2)\n")
	mach, mgr, err := h.machine()
	if err != nil {
		return err
	}
	rank, latency, err := mgr.Alloc("vmA")
	if err != nil {
		return err
	}
	h.printf("manager alloc-naav=%sms\n", ms(latency))
	if err := mgr.Release(rank); err != nil {
		return err
	}
	// Same-owner reallocation skips the reset.
	_, latency, err = mgr.Alloc("vmA")
	if err != nil {
		return err
	}
	h.printf("manager alloc-nana-reuse=%sms\n", ms(latency))
	h.printf("manager reset-per-rank=%sms (rank=%.1fGB)\n",
		ms(mach.Model().ResetDuration(rank.TotalBytes())),
		float64(rank.TotalBytes())/float64(1<<30))
	_ = mgr.ProcessResets()
	return nil
}

// MemOverhead reports the frontend's per-DPU memory overhead (Section 4.1).
func (h *Harness) MemOverhead() error {
	mach, mgr, err := h.machine()
	if err != nil {
		return err
	}
	vm, err := vmm.NewVM(mach, mgr, vmm.Config{Name: "mem", Options: vmm.Full()})
	if err != nil {
		return err
	}
	if _, err := vm.AllocSet(1); err != nil {
		return err
	}
	f := vm.Frontends()[0]
	h.printf("# Frontend memory overhead (Section 4.1)\n")
	h.printf("memoverhead per-dpu=%.2fMB (page-table + %d-page prefetch cache + %d-page batch buffer)\n",
		float64(f.MemoryOverheadBytes())/float64(1<<20),
		driver.DefaultPrefetchPages, driver.DefaultBatchPages)
	return nil
}

// All regenerates everything in paper order.
func (h *Harness) All() error {
	h.Table1()
	h.Table2()
	steps := []func() error{
		func() error { return h.Fig8(nil) },
		h.Fig9, h.Fig10, h.Fig11, h.Fig12, h.Fig13, h.Fig14, h.Fig15, h.Fig16,
		h.BootOverhead, h.ManagerOverhead, h.MemOverhead,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}
