package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/conformance"
	"repro/internal/hostmem"
	"repro/internal/manager"
	"repro/internal/obs"
	"repro/internal/pim"
	"repro/internal/prim"
	"repro/internal/sdk"
	"repro/internal/trace"
	"repro/internal/upmem"
	"repro/internal/vmm"
)

// opResult is one op's host latency and outcome.
type opResult struct {
	lat time.Duration
	err error
}

// state is an instance's cumulative virtual-side view: the Tracker
// categories (virtual ns) and obs counters of its vPIM environments, the
// counters of their managers, and a digest of everything read back. Every
// field is deterministic on the deterministic workloads, so two instances
// built from the same seed that ran the same ops must have equal states.
type state struct {
	ops      int
	virt     map[string]int64
	counters map[string]int64
	digest   uint64
}

func newState() state {
	return state{virt: make(map[string]int64), counters: make(map[string]int64)}
}

// clockKey is the virt entry holding the summed virtual clocks.
const clockKey = "clock"

// addEnv folds one environment into s: its virtual clock and Tracker, and,
// when given, the VM's counters (device tags aggregated away) and the
// manager's.
func (s state) addEnv(env sdk.Env, vm *vmm.VM, mgr *manager.Manager) {
	s.virt[clockKey] += int64(env.Timeline().Now())
	for k, v := range env.Tracker().Snapshot() {
		s.virt[k] += int64(v)
	}
	if vm != nil {
		s.addCounters(obs.Aggregate(vm.Metrics()))
	}
	if mgr != nil {
		s.addCounters(mgr.Metrics())
	}
}

func (s state) addCounters(c map[string]int64) {
	for k, v := range c {
		s.counters[k] += v
	}
}

// clone deep-copies s so later ops cannot change a recorded checkpoint.
func (s state) clone() state {
	out := state{ops: s.ops, digest: s.digest, virt: make(map[string]int64, len(s.virt)), counters: make(map[string]int64, len(s.counters))}
	for k, v := range s.virt {
		out.virt[k] = v
	}
	for k, v := range s.counters {
		out.counters[k] = v
	}
	return out
}

// phaseNS is the summed Fig 8 application-phase time of s.
func (s state) phaseNS() int64 {
	var t int64
	for _, ph := range trace.Phases {
		t += s.virt[ph]
	}
	return t
}

// diff lists every field on which a and b disagree, sorted.
func diff(a, b state) []string {
	var out []string
	if a.ops != b.ops {
		out = append(out, fmt.Sprintf("ops %d != %d", a.ops, b.ops))
	}
	if a.digest != b.digest {
		out = append(out, fmt.Sprintf("digest %016x != %016x", a.digest, b.digest))
	}
	for _, m := range []struct {
		name string
		a, b map[string]int64
	}{{"virt", a.virt, b.virt}, {"counter", a.counters, b.counters}} {
		for _, k := range sortedKeys(m.a, m.b) {
			if m.a[k] != m.b[k] {
				out = append(out, fmt.Sprintf("%s %s %d != %d", m.name, k, m.a[k], m.b[k]))
			}
		}
	}
	return out
}

// envMode selects the environment an instance runs its ops in.
type envMode int

const (
	modeVPIM envMode = iota
	modeNative
)

// instance is one set-up workload: machine built, environments booted,
// inputs generated.
type instance interface {
	// step runs the next unit of work: one op, or on tenants one op per
	// client started together.
	step(i int) []opResult
	// state reports the cumulative virtual-side view.
	state() state
}

// workload describes one benchmark workload.
type workload struct {
	name string
	why  string
	// pass is the number of steps the deadline is checked after: ops of a
	// prim-fig8 pass differ by 20x in cost, so its runs measure whole passes.
	pass int
	// checkOps is how many ops the determinism checkpoint covers.
	checkOps int
	// exempt skips the determinism check (tenants: rank admission waits on
	// real timers, so its virtual clock depends on host timing).
	exempt bool
	// setupReps is how many times a trace-0 run sets up to time setup_s.
	setupReps int
	// newInstance sets up the workload from seed. A non-nil tracer times
	// the layer boundaries; native mode is the twin without virtualization.
	newInstance func(seed int64, mode envMode, tr *tracer) (instance, error)
}

var workloads = []*workload{
	{
		name:        "prim-fig8",
		why:         "Exercises pim (kernel simulation) and prim (dataset generation and CPU references); the transport barely works here.",
		pass:        2 * len(prim.Apps()),
		checkOps:    2,
		setupReps:   9,
		newInstance: newPrimInstance,
	},
	{
		name:        "xfer-bulk",
		why:         "Exercises the backend row pool, hostmem translation, the copy engine and the rank fan-out; pim kernels are bypassed.",
		pass:        1,
		checkOps:    3,
		setupReps:   9,
		newInstance: newBulkInstance,
	},
	{
		name:        "xfer-small",
		why:         "Same transport as xfer-bulk, but each op pays the per-message cost: driver batch and prefetch cache, virtio chains, kvm exits.",
		pass:        1,
		checkOps:    20000,
		setupReps:   5,
		newInstance: newSmallInstance,
	},
	{
		name:        "tenants",
		why:         "The only workload on manager admission, preemption, checkpoint/restore and reset; no other layer would measure it.",
		pass:        1,
		checkOps:    4,
		exempt:      true,
		setupReps:   5,
		newInstance: newTenantsInstance,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// newMachine builds a machine of ranks ranks with the PrIM and UPMEM
// kernels registered and mram bytes of MRAM per DPU.
func newMachine(sc *scope, ranks int, mram int64) (*pim.Machine, error) {
	var mach *pim.Machine
	var err error
	sc.call("pim.NewMachine", layerPim, func() {
		mach, err = pim.NewMachine(pim.MachineConfig{
			Ranks: ranks,
			Rank:  pim.RankConfig{DPUs: dpusPerRank, MRAMBytes: mram},
		})
		if err != nil {
			return
		}
		if err = prim.Register(mach.Registry()); err != nil {
			return
		}
		err = upmem.Register(mach.Registry())
	})
	if err != nil {
		return nil, fmt.Errorf("new machine: %w", err)
	}
	return mach, nil
}

// dpusPerRank is the paper machine's functional DPU count per rank, and
// paperMRAM its per-DPU MRAM.
const (
	dpusPerRank = 60
	paperMRAM   = 64 << 20
)

// nativeRAM is the host memory a native environment gets, as in the
// figure harness.
const nativeRAM = 16 << 30

// bootEnv boots a vPIM (vmm.Full) or native environment on mach inside a
// boot span of sc. The environment comes back undecorated; see wrapMode.
func bootEnv(sc *scope, mach *pim.Machine, mgr *manager.Manager, mode envMode, name string) (sdk.Env, *vmm.VM, error) {
	if mode == modeNative {
		return bootNative(sc, mach, mgr, nativeRAM), nil, nil
	}
	vm, err := bootVM(sc, mach, mgr, vmm.Config{Name: name, VCPUs: 16, VUPMEMs: mach.NumRanks(), Options: vmm.Full()})
	if err != nil {
		return nil, nil, err
	}
	return vm, vm, nil
}

// wrapMode decorates env for sc, attributing device calls to the driver
// (vPIM) or native layer.
func wrapMode(env sdk.Env, sc *scope, mode envMode) sdk.Env {
	if mode == modeNative {
		return wrapEnv(env, sc, layerNative)
	}
	return wrapEnv(env, sc, layerDriver)
}

// traced opens a root span for op id when tr is set, runs fn, and closes it.
func traced(tr *tracer, sc *scope, id int64, name string, count bool, fn func()) {
	if tr == nil {
		fn()
		return
	}
	sc.op = tr.begin(id, name)
	fn()
	sc.op.end(count)
	sc.op = nil
}

func newScope(tr *tracer) *scope {
	if tr == nil {
		return nil
	}
	return &scope{}
}

// --- prim-fig8 ---------------------------------------------------------

// primInstance runs the Fig 8 60-DPU cell: op 2k runs app k natively and op
// 2k+1 runs it under vmm.Full, each on a freshly built machine and
// environment, as the figure harness pays for it.
type primInstance struct {
	seed   int64
	tr     *tracer
	sc     *scope
	apps   []prim.App
	st     state
	digest hash.Hash64
	// native holds the last native phase total per app; ratios the
	// vPIM/native ratio of every app that ran in both environments.
	native map[string]int64
	ratios map[string]float64
}

func newPrimInstance(seed int64, _ envMode, tr *tracer) (instance, error) {
	p := &primInstance{
		seed:   seed,
		tr:     tr,
		sc:     newScope(tr),
		apps:   prim.Apps(),
		st:     newState(),
		digest: fnv.New64a(),
		native: make(map[string]int64),
		ratios: make(map[string]float64),
	}
	// Set-up is what every op pays before App.Run: build a machine and
	// boot both environments once.
	var err error
	traced(tr, p.sc, -1, "setup", false, func() {
		var mach *pim.Machine
		if mach, err = newMachine(p.sc, 1, paperMRAM); err != nil {
			return
		}
		mgr := manager.New(mach, manager.Options{})
		if _, _, err = bootEnv(p.sc, mach, mgr, modeNative, "fig8"); err != nil {
			return
		}
		_, _, err = bootEnv(p.sc, mach, mgr, modeVPIM, "fig8")
	})
	return p, err
}

func (p *primInstance) step(i int) []opResult {
	app := p.apps[(i/2)%len(p.apps)]
	mode := modeNative
	if i%2 == 1 {
		mode = modeVPIM
	}
	var dg conformance.Digest
	var err error
	var env sdk.Env
	var vm *vmm.VM
	var mgr *manager.Manager
	start := time.Now()
	traced(p.tr, p.sc, int64(i), "prim."+app.Name, true, func() {
		var mach *pim.Machine
		if mach, err = newMachine(p.sc, 1, paperMRAM); err != nil {
			return
		}
		mgr = manager.New(mach, manager.Options{})
		if env, vm, err = bootEnv(p.sc, mach, mgr, mode, "fig8"); err != nil {
			return
		}
		dg, err = conformance.RunApp(wrapMode(env, p.sc, mode), app, prim.Params{DPUs: dpusPerRank, Seed: p.seed + 1})
	})
	lat := time.Since(start)
	if err != nil {
		return []opResult{{lat, fmt.Errorf("%s: %w", app.Name, err)}}
	}
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:], dg.Sum)
	binary.LittleEndian.PutUint64(b[8:], uint64(dg.Events))
	p.digest.Write(b[:])
	p.st.digest = p.digest.Sum64()

	run := newState()
	run.addEnv(env, nil, nil)
	if mode == modeNative {
		p.native[app.Name] = run.phaseNS()
		return []opResult{{lat, nil}}
	}
	p.st.addEnv(env, vm, mgr)
	p.st.ops++
	if nat := p.native[app.Name]; nat > 0 {
		p.ratios[app.Name] = float64(run.phaseNS()) / float64(nat)
	}
	return []opResult{{lat, nil}}
}

// state counts only the vPIM ops: virtual metrics are "of the vPIM side".
func (p *primInstance) state() state { return p.st.clone() }

// overhead is the geometric mean over apps of vPIM/native virtual total,
// the paper's Fig 8 summary statistic.
func (p *primInstance) overhead() (float64, bool) {
	if len(p.ratios) == 0 {
		return 0, false
	}
	var logSum float64
	for _, r := range p.ratios {
		logSum += math.Log(r)
	}
	return math.Exp(logSum / float64(len(p.ratios))), true
}

// --- xfer-bulk ---------------------------------------------------------

const (
	bulkRanks = 2
	bulkBytes = 1 << 20
)

// bulkInstance pushes then pulls bulkBytes per DPU over every DPU of two
// ranks. Each DPU has its own buffer, so no write collapses to a broadcast.
type bulkInstance struct {
	tr   *tracer
	sc   *scope
	env  sdk.Env
	vm   *vmm.VM
	mgr  *manager.Manager
	set  *sdk.Set
	wbuf []hostmem.Buffer
	rbuf []hostmem.Buffer
	ops  int
}

func newBulkInstance(seed int64, mode envMode, tr *tracer) (instance, error) {
	b := &bulkInstance{tr: tr, sc: newScope(tr)}
	var err error
	traced(tr, b.sc, -1, "setup", false, func() { err = b.setup(seed, mode) })
	if err != nil {
		return nil, fmt.Errorf("xfer-bulk setup: %w", err)
	}
	return b, nil
}

func (b *bulkInstance) setup(seed int64, mode envMode) error {
	mach, err := newMachine(b.sc, bulkRanks, paperMRAM)
	if err != nil {
		return err
	}
	b.mgr = manager.New(mach, manager.Options{})
	if b.env, b.vm, err = bootEnv(b.sc, mach, b.mgr, mode, "bulk"); err != nil {
		return err
	}
	b.env = wrapMode(b.env, b.sc, mode)
	n := bulkRanks * dpusPerRank
	if b.set, err = b.env.AllocSet(n); err != nil {
		return err
	}
	r := rand.New(rand.NewSource(seed))
	for d := 0; d < n; d++ {
		w, err := b.env.AllocBuffer(bulkBytes)
		if err != nil {
			return err
		}
		r.Read(w.Data)
		rb, err := b.env.AllocBuffer(bulkBytes)
		if err != nil {
			return err
		}
		b.wbuf = append(b.wbuf, w)
		b.rbuf = append(b.rbuf, rb)
	}
	// The first push commits the ranks' lazily backed MRAM; users pay that
	// once, so it belongs to set-up.
	return b.op()
}

func (b *bulkInstance) op() error {
	tl := b.env.Timeline()
	err := sdk.Phase(tl, trace.PhaseCPUDPU, func() error {
		for d, w := range b.wbuf {
			if err := b.set.PrepareXfer(d, w); err != nil {
				return err
			}
		}
		return b.set.PushXfer(sdk.ToDPU, 0, bulkBytes)
	})
	if err != nil {
		return fmt.Errorf("push: %w", err)
	}
	err = sdk.Phase(tl, trace.PhaseDPUCPU, func() error {
		for d, rb := range b.rbuf {
			if err := b.set.PrepareXfer(d, rb); err != nil {
				return err
			}
		}
		return b.set.PushXfer(sdk.FromDPU, 0, bulkBytes)
	})
	if err != nil {
		return fmt.Errorf("pull: %w", err)
	}
	// Compare, then clear, so a pull that skipped a page cannot pass on
	// the previous op's bytes.
	for d, rb := range b.rbuf {
		if !bytes.Equal(rb.Data, b.wbuf[d].Data) {
			err = fmt.Errorf("dpu %d: readback differs from what was pushed", d)
		}
		clear(rb.Data)
	}
	return err
}

func (b *bulkInstance) step(i int) []opResult {
	var err error
	start := time.Now()
	traced(b.tr, b.sc, int64(i), "xfer.bulk", true, func() { err = b.op() })
	b.ops++
	return []opResult{{time.Since(start), err}}
}

func (b *bulkInstance) state() state {
	return vmState(b.ops, b.env, b.vm, b.mgr)
}

// vmState reads the cumulative state of a single-environment instance.
func vmState(ops int, env sdk.Env, vm *vmm.VM, mgr *manager.Manager) state {
	s := newState()
	s.ops = ops
	if vm == nil {
		mgr = nil // a native twin contributes its clock and phases only
	}
	s.addEnv(env, vm, mgr)
	return s
}

// --- xfer-small --------------------------------------------------------

const (
	smallRegion = 256 << 10 // per-DPU MRAM window the ops address
	smallPool   = 1 << 20   // guest buffer the write payloads are cut from
	smallSpecs  = 1 << 16   // generated ops, replayed cyclically
	smallSym    = "ck_n"    // 4-byte host symbol of upmem/checksum
)

const (
	kindWrite = iota
	kindRead
	kindSymWrite
	kindSymRead
)

// smallSpec is one generated serial transfer.
type smallSpec struct {
	kind uint8
	dpu  uint8
	size uint16
	off  uint32 // MRAM offset of a write
	src  uint32 // payload offset in the pool
}

// smallInstance issues one small serial transfer per op on one rank: 50%
// CopyToMRAM at scattered offsets, 40% CopyFromMRAM walking per-DPU
// sequential cursors, 10% host-symbol writes and reads. Every read is
// checked against a shadow copy of what was written.
type smallInstance struct {
	tr     *tracer
	sc     *scope
	env    sdk.Env
	vm     *vmm.VM
	mgr    *manager.Manager
	set    *sdk.Set
	pool   hostmem.Buffer
	rbuf   hostmem.Buffer
	specs  []smallSpec
	shadow [][]byte
	sym    [][4]byte
	cursor []int64
	ops    int
}

func genSmallSpecs(r *rand.Rand) []smallSpec {
	specs := make([]smallSpec, smallSpecs)
	for i := range specs {
		s := smallSpec{dpu: uint8(r.Intn(dpusPerRank))}
		size := 64 << r.Intn(8) // 64 B .. 8 KiB
		s.size = uint16(size)
		switch p := r.Intn(100); {
		case p < 50:
			s.kind = kindWrite
			s.off = uint32(r.Intn((smallRegion-size)/8+1) * 8)
			s.src = uint32(r.Intn((smallPool-size)/8+1) * 8)
		case p < 90:
			s.kind = kindRead
		case p < 95:
			s.kind = kindSymWrite
			s.src = uint32(r.Intn(smallPool/8) * 8)
		default:
			s.kind = kindSymRead
		}
		specs[i] = s
	}
	return specs
}

func newSmallInstance(seed int64, mode envMode, tr *tracer) (instance, error) {
	s := &smallInstance{tr: tr, sc: newScope(tr)}
	var err error
	traced(tr, s.sc, -1, "setup", false, func() { err = s.setup(seed, mode) })
	if err != nil {
		return nil, fmt.Errorf("xfer-small setup: %w", err)
	}
	return s, nil
}

func (s *smallInstance) setup(seed int64, mode envMode) error {
	mach, err := newMachine(s.sc, 1, paperMRAM)
	if err != nil {
		return err
	}
	s.mgr = manager.New(mach, manager.Options{})
	if s.env, s.vm, err = bootEnv(s.sc, mach, s.mgr, mode, "small"); err != nil {
		return err
	}
	s.env = wrapMode(s.env, s.sc, mode)
	if s.set, err = s.env.AllocSet(dpusPerRank); err != nil {
		return err
	}
	if err = s.set.Load("upmem/checksum"); err != nil {
		return err
	}
	r := rand.New(rand.NewSource(seed))
	if s.pool, err = s.env.AllocBuffer(smallPool); err != nil {
		return err
	}
	r.Read(s.pool.Data)
	if s.rbuf, err = s.env.AllocBuffer(8 << 10); err != nil {
		return err
	}
	s.specs = genSmallSpecs(r)
	// Fill every DPU's window (and symbol) with known bytes, so the first
	// read of any offset already has something to check.
	s.shadow = make([][]byte, dpusPerRank)
	s.sym = make([][4]byte, dpusPerRank)
	s.cursor = make([]int64, dpusPerRank)
	for d := range s.shadow {
		off := (d * 8 << 10) % (smallPool - smallRegion)
		src := hostmem.Buffer{GPA: s.pool.GPA + uint64(off), Data: s.pool.Data[off : off+smallRegion]}
		if err := s.set.PrepareXfer(d, src); err != nil {
			return err
		}
		s.shadow[d] = bytes.Clone(src.Data)
	}
	if err := s.set.PushXfer(sdk.ToDPU, 0, smallRegion); err != nil {
		return err
	}
	var v [4]byte
	copy(v[:], s.pool.Data)
	for d := range s.sym {
		s.sym[d] = v
	}
	return s.set.BroadcastSym(smallSym, 0, v[:])
}

func (s *smallInstance) op(sp smallSpec) error {
	tl := s.env.Timeline()
	d, size := int(sp.dpu), int(sp.size)
	switch sp.kind {
	case kindWrite:
		src := hostmem.Buffer{GPA: s.pool.GPA + uint64(sp.src), Data: s.pool.Data[sp.src : int(sp.src)+size]}
		err := sdk.Phase(tl, trace.PhaseCPUDPU, func() error { return s.set.CopyToMRAM(d, int64(sp.off), src, size) })
		if err != nil {
			return fmt.Errorf("write dpu %d: %w", d, err)
		}
		copy(s.shadow[d][sp.off:], src.Data)
	case kindRead:
		cur := s.cursor[d]
		if cur+int64(size) > smallRegion {
			cur = 0
		}
		err := sdk.Phase(tl, trace.PhaseDPUCPU, func() error { return s.set.CopyFromMRAM(d, cur, s.rbuf, size) })
		if err != nil {
			return fmt.Errorf("read dpu %d: %w", d, err)
		}
		if !bytes.Equal(s.rbuf.Data[:size], s.shadow[d][cur:cur+int64(size)]) {
			return fmt.Errorf("read dpu %d at %d: readback differs from shadow", d, cur)
		}
		s.cursor[d] = cur + int64(size)
	case kindSymWrite:
		v := s.pool.Data[sp.src : sp.src+4]
		err := sdk.Phase(tl, trace.PhaseCPUDPU, func() error { return s.set.CopyToSym(d, smallSym, 0, v) })
		if err != nil {
			return fmt.Errorf("symbol write dpu %d: %w", d, err)
		}
		copy(s.sym[d][:], v)
	case kindSymRead:
		var got [4]byte
		err := sdk.Phase(tl, trace.PhaseDPUCPU, func() error { return s.set.CopyFromSym(d, smallSym, 0, got[:]) })
		if err != nil {
			return fmt.Errorf("symbol read dpu %d: %w", d, err)
		}
		if got != s.sym[d] {
			return fmt.Errorf("symbol read dpu %d: %x, want %x", d, got, s.sym[d])
		}
	}
	return nil
}

func (s *smallInstance) step(i int) []opResult {
	var err error
	start := time.Now()
	traced(s.tr, s.sc, int64(i), "xfer.small", true, func() { err = s.op(s.specs[i%smallSpecs]) })
	s.ops++
	return []opResult{{time.Since(start), err}}
}

func (s *smallInstance) state() state { return vmState(s.ops, s.env, s.vm, s.mgr) }

// --- tenants -----------------------------------------------------------

const (
	tenantClients = 2
	tenantBytes   = 256 << 10
	// tenantMRAM is smaller than the paper's 64 MB, as in the time-slicing
	// conformance tests: every job re-attaches, and each attach allocates
	// guest page-table buffers sized by MRAM that are never freed.
	tenantMRAM = 8 << 20
)

// tenantManagerOpts is the time-slicing manager: a 500 µs quantum, a 1 ms
// first poll and 1.5x backoff. Admission waits on real timers, so the retry
// budget (about 6.6 s of polling) is sized for no job to abandon on a
// loaded host.
func tenantManagerOpts() manager.Options {
	return manager.Options{
		Retries:      20,
		RetryTimeout: time.Millisecond,
		Backoff:      1.5,
		SchedPolicy:  manager.SchedSlice,
		Quantum:      500 * time.Microsecond,
	}
}

// tenantsInstance has two vmm.Full VMs share a one-rank machine. Each step
// starts one checksum job per client (alloc, load, push, launch, read,
// free) and waits for both. The native twin is a single client.
type tenantsInstance struct {
	seed    int64
	tr      *tracer
	mgr     *manager.Manager
	clients []*tenant
	ops     int
}

type tenant struct {
	sc  *scope
	env sdk.Env
	vm  *vmm.VM
}

func newTenantsInstance(seed int64, mode envMode, tr *tracer) (instance, error) {
	t := &tenantsInstance{seed: seed, tr: tr}
	sc := newScope(tr)
	var err error
	traced(tr, sc, -1, "setup", false, func() {
		var mach *pim.Machine
		if mach, err = newMachine(sc, 1, tenantMRAM); err != nil {
			return
		}
		t.mgr = manager.New(mach, tenantManagerOpts())
		n := tenantClients
		if mode == modeNative {
			n = 1
		}
		for c := 0; c < n; c++ {
			// Boot inside the set-up span; the client's own scope times
			// its jobs.
			cl := &tenant{sc: newScope(tr)}
			if cl.env, cl.vm, err = bootEnv(sc, mach, t.mgr, mode, fmt.Sprintf("tenant%d", c)); err != nil {
				return
			}
			cl.env = wrapMode(cl.env, cl.sc, mode)
			t.clients = append(t.clients, cl)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("tenants setup: %w", err)
	}
	return t, nil
}

func (t *tenantsInstance) step(i int) []opResult {
	res := make([]opResult, len(t.clients))
	var wg sync.WaitGroup
	for c, cl := range t.clients {
		wg.Add(1)
		go func(c int, cl *tenant) {
			defer wg.Done()
			p := upmem.ChecksumParams{DPUs: dpusPerRank, BytesPerDPU: tenantBytes, Seed: t.seed*tenantClients + int64(c) + 1}
			var err error
			start := time.Now()
			traced(t.tr, cl.sc, int64(i*tenantClients+c), "tenant.checksum", true, func() { err = upmem.RunChecksum(cl.env, p) })
			if err != nil {
				err = fmt.Errorf("tenant %d: %w", c, err)
			}
			res[c] = opResult{time.Since(start), err}
		}(c, cl)
	}
	wg.Wait()
	t.ops += len(t.clients)
	return res
}

func (t *tenantsInstance) state() state {
	s := newState()
	s.ops = t.ops
	for _, cl := range t.clients {
		s.addEnv(cl.env, cl.vm, nil)
	}
	if t.clients[0].vm != nil {
		s.addCounters(t.mgr.Metrics())
	}
	return s
}
