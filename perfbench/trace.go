package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/hostmem"
	"repro/internal/manager"
	"repro/internal/native"
	"repro/internal/pim"
	"repro/internal/sdk"
	"repro/internal/simtime"
	"repro/internal/vmm"
)

// Host layers a span is attributed to. The root span of an op belongs to
// layerPrim: on prim-fig8 it is App.Run, elsewhere the workload's own input
// generation and readback checks.
const (
	layerPrim    = "prim"
	layerPim     = "pim"
	layerDriver  = "driver"
	layerNative  = "native"
	layerManager = "manager"
	layerHostmem = "hostmem"
	layerVMM     = "vmm"
)

// hostLayers lists the layers in report order.
var hostLayers = []string{layerPrim, layerPim, layerDriver, layerNative, layerManager, layerHostmem, layerVMM}

// span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer's epoch on the monotonic clock.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Op     int64  `json:"op"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// callStat accumulates the calls of one span name ("driver.WriteRank"):
// n calls taking ns in all, opN of them inside counted ops.
type callStat struct {
	n, ns, opN int64
}

// tracer collects spans op by op. Each finished op is reduced at once to
// per-layer self time and per-call totals; only the spans of the first
// keepOps ops are retained for the span file, so memory stays bounded on
// workloads that run hundreds of thousands of ops.
type tracer struct {
	epoch   time.Time
	keepOps int64

	mu     sync.Mutex
	calls  map[string]*callStat
	self   map[string]int64
	opWall int64
	ops    int64
	kept   []span
}

func newTracer(keepOps int64) *tracer {
	return &tracer{
		epoch:   time.Now(),
		keepOps: keepOps,
		calls:   make(map[string]*callStat),
		self:    make(map[string]int64),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// opTrace holds one op's spans while it runs. Devices append from the
// goroutines a multi-rank fan-out runs on, hence the lock.
type opTrace struct {
	t     *tracer
	id    int64
	mu    sync.Mutex
	spans []span
}

// begin opens the root span of op id.
func (t *tracer) begin(id int64, name string) *opTrace {
	return &opTrace{t: t, id: id, spans: []span{{Name: name, Layer: layerPrim, Op: id, Parent: -1, Start: t.now()}}}
}

// end closes the root span. A counted op adds its self times to the
// per-op totals; set-up work (count false) only contributes call totals,
// which is where the environment boot times come from.
func (o *opTrace) end(count bool) {
	o.mu.Lock()
	o.spans[0].End = o.t.now()
	spans := o.spans
	o.mu.Unlock()
	self := selfTimes(spans)

	t := o.t
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range spans[1:] {
		c := t.calls[s.Name]
		if c == nil {
			c = &callStat{}
			t.calls[s.Name] = c
		}
		c.n++
		c.ns += s.End - s.Start
		if count {
			c.opN++
		}
	}
	if !count {
		return
	}
	for layer, ns := range self {
		t.self[layer] += ns
	}
	t.opWall += spans[0].End - spans[0].Start
	t.ops++
	if t.ops <= t.keepOps {
		t.kept = append(t.kept, spans...)
	}
}

// call runs fn inside a child span of the op's root.
func (o *opTrace) call(name, layer string, fn func()) {
	start := o.t.now()
	fn()
	end := o.t.now()
	o.mu.Lock()
	o.spans = append(o.spans, span{Name: name, Layer: layer, Op: o.id, ID: int32(len(o.spans)), Parent: 0, Start: start, End: end})
	o.mu.Unlock()
}

// selfTimes attributes every instant of the root span to the innermost
// spans open at that instant. All wrapped calls are children of the root
// (the wrapped layers never call each other), so an instant inside no
// child is the root's own, and an instant inside k overlapping children —
// the ranks of a parallel transfer — is shared equally among them. The
// per-layer results therefore sum exactly to the root's duration.
func selfTimes(spans []span) map[string]int64 {
	root := spans[0]
	type edge struct {
		at    int64
		child int
		open  bool
	}
	edges := make([]edge, 0, 2*(len(spans)-1))
	for i, s := range spans[1:] {
		edges = append(edges, edge{s.Start, i + 1, true}, edge{s.End, i + 1, false})
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].at != edges[b].at {
			return edges[a].at < edges[b].at
		}
		return !edges[a].open && edges[b].open
	})
	share := make([]float64, len(spans))
	var active []int
	prev := root.Start
	for _, e := range edges {
		if d := e.at - prev; d > 0 {
			if len(active) == 0 {
				share[0] += float64(d)
			} else {
				for _, c := range active {
					share[c] += float64(d) / float64(len(active))
				}
			}
			prev = e.at
		}
		if e.open {
			active = append(active, e.child)
			continue
		}
		for i, c := range active {
			if c == e.child {
				active = append(active[:i], active[i+1:]...)
				break
			}
		}
	}
	if d := root.End - prev; d > 0 {
		share[0] += float64(d)
	}
	out := make(map[string]int64)
	for i, s := range spans {
		out[s.Layer] += int64(share[i] + 0.5)
	}
	return out
}

// writeSpans writes the retained spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.kept {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// scope is one client's handle on the op it is running. The client sets op
// before each op; wrapped calls made outside any op are not recorded.
type scope struct {
	op *opTrace
}

func (s *scope) call(name, layer string, fn func()) {
	if s == nil || s.op == nil {
		fn()
		return
	}
	s.op.call(name, layer, fn)
}

// tracedEnv times an environment's AllocSet and AllocBuffer and hands out
// sets whose devices are timed too. Applications receive it as a plain
// sdk.Env.
type tracedEnv struct {
	sdk.Env
	sc       *scope
	devLayer string
}

// wrapEnv returns env with timing decorators, or env itself when sc is nil.
func wrapEnv(env sdk.Env, sc *scope, devLayer string) sdk.Env {
	if sc == nil {
		return env
	}
	return &tracedEnv{Env: env, sc: sc, devLayer: devLayer}
}

func (e *tracedEnv) AllocSet(nrDPUs int) (*sdk.Set, error) {
	var set *sdk.Set
	var err error
	e.sc.call("manager.AllocSet", layerManager, func() { set, err = e.Env.AllocSet(nrDPUs) })
	if err != nil {
		return nil, err
	}
	devs := set.Devices()
	for i, d := range devs {
		devs[i] = &tracedDevice{Device: d, sc: e.sc, layer: e.devLayer}
	}
	return sdk.NewSet(devs, set.NumDPUs(), e.Env.Timeline())
}

func (e *tracedEnv) AllocBuffer(n int) (hostmem.Buffer, error) {
	var buf hostmem.Buffer
	var err error
	e.sc.call("hostmem.AllocBuffer", layerHostmem, func() { buf, err = e.Env.AllocBuffer(n) })
	return buf, err
}

// tracedDevice times every sdk.Device method that does work. The three
// geometry getters are left untimed: Set calls them on every per-DPU copy
// to locate the rank, and they only read a field.
type tracedDevice struct {
	sdk.Device
	sc    *scope
	layer string
}

func (d *tracedDevice) LoadProgram(name string, tl *simtime.Timeline) error {
	var err error
	d.sc.call(d.layer+".LoadProgram", d.layer, func() { err = d.Device.LoadProgram(name, tl) })
	return err
}

func (d *tracedDevice) WriteRank(entries []sdk.DPUXfer, off int64, length int, tl *simtime.Timeline) error {
	var err error
	d.sc.call(d.layer+".WriteRank", d.layer, func() { err = d.Device.WriteRank(entries, off, length, tl) })
	return err
}

func (d *tracedDevice) ReadRank(entries []sdk.DPUXfer, off int64, length int, tl *simtime.Timeline) error {
	var err error
	d.sc.call(d.layer+".ReadRank", d.layer, func() { err = d.Device.ReadRank(entries, off, length, tl) })
	return err
}

func (d *tracedDevice) SymWrite(dpu int, symbol string, off int, src []byte, tl *simtime.Timeline) error {
	var err error
	d.sc.call(d.layer+".SymWrite", d.layer, func() { err = d.Device.SymWrite(dpu, symbol, off, src, tl) })
	return err
}

func (d *tracedDevice) SymBroadcast(symbol string, off int, src []byte, tl *simtime.Timeline) error {
	var err error
	d.sc.call(d.layer+".SymBroadcast", d.layer, func() { err = d.Device.SymBroadcast(symbol, off, src, tl) })
	return err
}

func (d *tracedDevice) SymRead(dpu int, symbol string, off int, dst []byte, tl *simtime.Timeline) error {
	var err error
	d.sc.call(d.layer+".SymRead", d.layer, func() { err = d.Device.SymRead(dpu, symbol, off, dst, tl) })
	return err
}

// Launch is attributed to the pim layer on both environments: natively it
// is pure kernel simulation, under vPIM the CI round trips ride along.
func (d *tracedDevice) Launch(dpus []int, tl *simtime.Timeline) error {
	var err error
	d.sc.call("pim.Launch", layerPim, func() { err = d.Device.Launch(dpus, tl) })
	return err
}

func (d *tracedDevice) LaunchStart(dpus []int, tl *simtime.Timeline) (simtime.Duration, error) {
	var done simtime.Duration
	var err error
	d.sc.call("pim.LaunchStart", layerPim, func() { done, err = d.Device.LaunchStart(dpus, tl) })
	return done, err
}

// Release is the manager's side of dpu_free: the rank goes back to the pool.
func (d *tracedDevice) Release(tl *simtime.Timeline) error {
	var err error
	d.sc.call("manager.Release", layerManager, func() { err = d.Device.Release(tl) })
	return err
}

// bootVM is vmm.NewVM inside a "vmm.NewVM" span.
func bootVM(sc *scope, mach *pim.Machine, mgr manager.RankManager, cfg vmm.Config) (*vmm.VM, error) {
	var vm *vmm.VM
	var err error
	sc.call("vmm.NewVM", layerVMM, func() { vm, err = vmm.NewVM(mach, mgr, cfg) })
	if err != nil {
		return nil, fmt.Errorf("boot vm: %w", err)
	}
	return vm, nil
}

// bootNative is native.NewEnv inside a "native.NewEnv" span.
func bootNative(sc *scope, mach *pim.Machine, pool native.RankPool, ramBytes int64) *native.Env {
	var env *native.Env
	sc.call("native.NewEnv", layerNative, func() { env = native.NewEnv(mach, pool, ramBytes) })
	return env
}
