// Command perfbench is the repository benchmark: four fixed workloads run
// from one process, measured on both clocks the repository has. The
// virtual clock is the modelled system's time, the figures the paper
// reports. The host clock is what the simulator costs to run.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// run.sh builds this module (which replaces the repro module with the
// parent directory) into .bench_build/ and runs it. Every run prints its
// settings first: workload, seed, run length, GOMAXPROCS, NumCPU and Go
// version. It then prints one metric per line with its unit, and last one
// JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the object holds the end-to-end metrics; with --trace 1 the per-layer
// metrics. The module's own tests (go test ./... in this directory) prove
// that the timing decorators change nothing the program computes.
//
// # Workloads
//
// All are closed loops. The seed generates every input; the program only
// receives them.
//
//   - prim-fig8 (1 client). One op is one PrIM app run on a freshly built
//     1-rank machine (60 DPUs, 64 MB MRAM) in a freshly booted environment.
//     Op 2k runs app k natively, op 2k+1 under vmm.Full(). A pass is all 16
//     apps of Table 1 in both environments, 32 ops. This is the Fig 8
//     60-DPU cell as `vpim-bench -fig 8` pays for it. Ops differ 20x in
//     cost, so a run measures whole passes: it may overrun --seconds to
//     finish one. Exercises pim (kernel simulation) and prim (dataset
//     generation, CPU references); the transport barely works.
//   - xfer-bulk (1 client). One op pushes then pulls 1 MiB per DPU over
//     2 ranks x 60 DPUs under vmm.Full(). Every DPU has its own buffer, so
//     nothing collapses into a broadcast. The readback is compared byte for
//     byte, then cleared. Exercises the backend row pool, hostmem
//     translation, the copy engine and the rank fan-out; pim kernels are
//     bypassed.
//   - xfer-small (1 client). One op is one small serial transfer on
//     1 rank x 60 DPUs under vmm.Full(): 50% CopyToMRAM at scattered
//     offsets, 40% CopyFromMRAM walking per-DPU sequential cursors, 5%
//     CopyToSym and 5% CopyFromSym, with sizes 64 B to 8 KiB. Every read is
//     checked against a shadow copy. Same transport as xfer-bulk, but each
//     op pays the per-message cost: driver batch and prefetch cache, virtio
//     chains, kvm exits.
//   - tenants (2 clients). One op is one checksum job (256 KiB per DPU,
//     60 DPUs: alloc, load, push, launch, read, free). Two vmm.Full() VMs
//     share a 1-rank machine whose manager time-slices it (SchedSlice, a
//     500 us quantum, a 1 ms first poll, 1.5x backoff, 20 polls). The two
//     clients start each job together. The rank has 8 MB of MRAM per DPU,
//     as in the time-slicing conformance tests: every job attaches afresh,
//     and each attach allocates guest buffers, sized partly by MRAM, that
//     are never freed. The only workload on manager admission, preemption,
//     checkpoint/restore and reset.
//
// # End-to-end metrics (--trace 0)
//
// Host metrics are measured untraced.
//
//   - setup_s (s): median of several set-ups (machine build, kernel
//     registration, VM boot, input generation) done before the timed loop.
//   - ops_per_s (1/s): completed ops per host second. The run is split into
//     ten chunks of equal length, each ending at a pass boundary, and this
//     is the median of the chunks' rates, so a burst of host interference
//     spoils a chunk, not the figure. prim-fig8 runs a single pass, so it
//     reports that pass's rate.
//   - op_p50_ms, op_p90_ms (ms): per-op host latency. Each is taken within
//     every chunk, interpolated between the closest ranks, and the median
//     over chunks is reported. The human-readable output also gives the
//     whole run's op_p99_ms with the number of samples beyond it.
//   - mem_peak_mib (MiB): peak live Go heap (bytes the last GC marked) in
//     the timed loop, polled every millisecond.
//   - virt_ms_per_op (vms): summed Fig 8 phase time of the vPIM side per
//     vPIM op, in virtual milliseconds.
//   - virt_overhead_x (x): vPIM over native virtual time. On prim-fig8 it is
//     the geometric mean over apps of the vPIM/native totals. Print next to
//     it: the paper's 60-DPU reference is 1.24x on average, 1.01-2.07x
//     over apps. The model reproduces the shape, not the magnitude, at
//     these dataset scales. Elsewhere a native twin replays the
//     checkpointed ops and the ratio is of phase time per op.
//
// Failures (CPU-reference, readback and checksum mismatches, allocation
// errors, determinism mismatches) are counted, not fatal. They are the
// result's "failed" out of "attempted", and any failure makes "correct"
// false. fail_ratio is printed but not a metric, as it is zero.
//
// # Per-layer metrics (--trace 1)
//
// A traced run measures half of --seconds untraced, then half on a fresh
// instance with benchmark-owned timing decorators on each layer's public
// boundary:
//
//   - sdk.Env: AllocSet (manager) and AllocBuffer (hostmem);
//   - every sdk.Device method that does work, by rebuilding each set with
//     sdk.NewSet over the wrapped Set.Devices(): Launch and LaunchStart
//     (pim), Release (manager), and the transfers, symbol calls and
//     LoadProgram (driver under vPIM, native otherwise). The geometry
//     getters are left untimed; they read a field;
//   - the constructors vmm.NewVM (vmm), native.NewEnv (native) and
//     pim.NewMachine (pim).
//
// Each op is a root span (layer prim) with the wrapped calls as children.
// Spans (name, layer, start, end, parent, op id) stay in memory. The first
// 1000 ops' spans are written to .bench_build/spans/<workload>.jsonl when
// the run ends. A layer's self time is the part of each op's wall time it
// covers. Wall time inside no child is the root's. Time inside k
// overlapping children (a parallel rank fan-out) is shared equally among
// them. So the self times add up to the op wall time, and
// trace.attributed_ratio checks that against the loop's own clock.
//
// Virtual-side metrics come from vm.Tracker(), vm.Metrics() and
// Manager.Metrics(). Those are always live, so --trace 0 prints them too.
// Counts are per op; virtual times are per vPIM op. Below, each layer
// lists its metrics and the end-to-end metric they should move, and on
// which workload.
//
//   - prim: prim.self_ms_per_op (ms), the root's self time: App.Run minus
//     its Env and Device calls on prim-fig8, the workload's own checks
//     elsewhere. Moves ops_per_s and op_p50_ms on prim-fig8. It is small on
//     the xfer workloads, apart from xfer-bulk's compare-and-clear.
//   - pim: pim.self_ms_per_op, pim.launch_ms_per_op (ms) and
//     pim.launch_calls_per_op. Launch on the native env is pure kernel
//     simulation. Moves ops_per_s and op_p90_ms on prim-fig8, and a little
//     on tenants. It is 0 on xfer-*, the bypass check.
//   - driver: the vPIM Device, with virtio, kvm, backend and hostmem below
//     it. Host times driver.self_ms_per_op (ms), driver.write_us_per_call,
//     driver.read_us_per_call and driver.sym_us_per_call (us), with
//     driver.{write,read,sym}_calls_per_op. Counters
//     driver.messages_per_op, driver.batch_{appends,flushes,fallbacks}_per_op,
//     driver.control_roundtrips_per_op, driver.cache_lookups_per_op and
//     driver.cache_hit_ratio (hits over lookups). Moves ops_per_s on
//     xfer-bulk, op_p50_ms on xfer-small, and virt_ms_per_op on both.
//   - native: native.self_ms_per_op (ms), native.write_us_per_call and
//     native.read_us_per_call (us), native.env_ms (ms) on prim-fig8. They
//     are the twin without virtualization: vPIM minus native is the host
//     cost of virtualization. They move ops_per_s on prim-fig8, slightly.
//   - virtio / kvm: virtio.chains_per_op, virtio.descs_per_op,
//     kvm.exits_per_op, kvm.irqs_per_op and kvm.exits_suppressed_per_op.
//     They move virt_ms_per_op and op_p50_ms on xfer-small. On xfer-bulk
//     they stay at a few per op.
//   - backend: backend.rows_per_op, backend.pages_per_op,
//     backend.copy_mib_per_op (MiB), backend.batch_records_per_op and
//     backend.workers_busy_per_op. They move ops_per_s and virt_ms_per_op
//     on xfer-bulk.
//   - hostmem / vmm: vmm.boot_ms, native.env_ms (ms),
//     hostmem.allocbuf_us_per_call (us), hostmem.self_ms_per_op,
//     vmm.self_ms_per_op (ms) and hostmem.snapshot_swaps_per_op. They move
//     setup_s on every workload, and ops_per_s on prim-fig8, which boots
//     two environments per app.
//   - manager: host times manager.self_ms_per_op,
//     manager.allocset_ms_per_call and manager.free_ms_per_call (ms).
//     Counters per op: manager.granted_per_op, manager.parked_per_op,
//     manager.timedout_per_op, manager.preemptions_per_op,
//     manager.restores_per_op, manager.resets_per_op and
//     manager.sched_wait_per_op. The wasted-work ratio is
//     manager.preempt_per_grant. They move op_p90_ms, ops_per_s,
//     virt_ms_per_op and failures on tenants. On the single-tenant
//     workloads there is one grant per set.
//   - virtual breakdown (vms per vPIM op): phases virt.phase.cpu_dpu_ms,
//     virt.phase.dpu_ms, virt.phase.inter_dpu_ms and virt.phase.dpu_cpu_ms;
//     operations virt.op.w_rank_ms, virt.op.r_rank_ms, virt.op.ci_ms,
//     virt.op.alloc_ms, virt.op.ckpt_ms and virt.op.restore_ms; write steps
//     virt.step.page_ms, virt.step.ser_ms, virt.step.int_ms,
//     virt.step.deser_ms and virt.step.t_data_ms. They move virt_ms_per_op
//     on their own workload: steps on xfer-bulk, ckpt, restore and alloc on
//     tenants, phases and virt_overhead_x on prim-fig8.
//   - Go runtime, from the untraced half: runtime.alloc_mib_per_op (MiB),
//     runtime.gc_cycles_per_op, and host.cpu_ms_per_op (user+sys, ms).
//     They move mem_peak_mib and ops_per_s on every workload. CPU per op
//     shows parallelism that buys wall time with extra cores.
//   - tracing itself: trace.untraced_ops_per_s and trace.traced_ops_per_s
//     (1/s) and their ratio trace.overhead_x; trace.attributed_ratio; and
//     op_p99_ms (ms) from the untraced half. The traced run also names the
//     top host layer.
//
// # Determinism self-check
//
// On prim-fig8, xfer-bulk and xfer-small every virtual category, virtual
// clock, counter and readback digest must be identical for the same seed.
// A --trace 0 run records the instance's state after set-up and at a
// checkpoint after the first few ops. It then replays that many ops on a
// fresh untraced twin and compares both states. A --trace 1 run compares
// its untraced and traced halves at the same checkpoint. Every mismatch
// counts as a failed op. tenants is exempt: rank admission waits on real
// timers, so its virtual clock depends on host timing. check.twin_virt_diff
// reports the relative difference instead; it is 0 on the other
// workloads.
package main
