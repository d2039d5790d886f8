// Package prim ports the PrIM benchmark suite (Gómez-Luna et al., the 16
// real-world workloads of Table 1) to the reproduction's SDK. Every
// application has a host-side program, one or more DPU kernels, a
// deterministic workload generator and a CPU reference check, and runs
// unmodified in the native and virtualized environments — mirroring how the
// paper runs untouched PrIM binaries on vPIM.
//
// The data-transfer patterns are the point: VA/GEMV push bulk data with
// parallel transfers, SpMV/BFS push serially (one DPU at a time), SEL/UNI
// retrieve serially, RED/SCAN-*/HST-* read small per-DPU results in their
// Inter-DPU step (triggering the prefetch-cache anomaly the paper reports),
// and NW/TRNS issue very large numbers of small transfers (the worst case
// for para-virtualization).
package prim

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/hostmem"
	"repro/internal/sdk"
)

// DefaultTasklets is the tasklet count PrIM finds optimal for most kernels.
const DefaultTasklets = 16

// Params sizes one application run.
type Params struct {
	// DPUs is the DPU count (strong scaling uses the same dataset at 60
	// and 480).
	DPUs int
	// Scale multiplies the baseline dataset size; 1 is the scaled-down
	// default documented in DESIGN.md.
	Scale int
	// Weak selects weak scaling: the dataset grows with the DPU count so
	// each DPU keeps the per-DPU share it would have at 60 DPUs (PrIM's
	// weak-scaling configuration; the paper's Fig. 8 uses strong scaling).
	Weak bool
	// Seed makes the workload deterministic; 0 selects 1.
	Seed int64
}

func (p Params) withDefaults() Params {
	if p.DPUs == 0 {
		p.DPUs = 60
	}
	if p.Scale == 0 {
		p.Scale = 1
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// Rand returns the run's deterministic source.
func (p Params) Rand() *rand.Rand { return rand.New(rand.NewSource(p.Seed)) }

// size derives the run's dataset size from an application's base (sized for
// 60 DPUs): multiplied by Scale, and under weak scaling grown
// proportionally to the DPU count. The result stays divisible by the DPU
// count whenever base is.
func (p Params) size(base int) int {
	n := base * p.Scale
	if p.Weak {
		n = n / 60 * p.DPUs
	}
	return n
}

// App is one PrIM benchmark.
type App struct {
	// Name is the short name of Table 1 (e.g. "VA").
	Name string
	// Full is the benchmark's full name.
	Full string
	// Domain is the application domain of Table 1.
	Domain string
	// Run executes the workload, checks results against a CPU reference
	// and returns an error on any mismatch.
	Run func(env sdk.Env, p Params) error
}

// Apps returns the sixteen PrIM applications in Table 1 order.
func Apps() []App {
	return []App{
		{Name: "VA", Full: "Vector Addition", Domain: "Dense linear algebra", Run: RunVA},
		{Name: "GEMV", Full: "Matrix-Vector Multiply", Domain: "Dense linear algebra", Run: RunGEMV},
		{Name: "SpMV", Full: "Sparse Matrix-Vector Multiply", Domain: "Sparse linear algebra", Run: RunSpMV},
		{Name: "SEL", Full: "Select", Domain: "Databases", Run: RunSEL},
		{Name: "UNI", Full: "Unique", Domain: "Databases", Run: RunUNI},
		{Name: "BS", Full: "Binary Search", Domain: "Databases", Run: RunBS},
		{Name: "TS", Full: "Time Series Analysis", Domain: "Data analytics", Run: RunTS},
		{Name: "BFS", Full: "Breadth-First Search", Domain: "Graph processing", Run: RunBFS},
		{Name: "MLP", Full: "Multilayer Perceptron", Domain: "Neural networks", Run: RunMLP},
		{Name: "NW", Full: "Needleman-Wunsch", Domain: "Bioinformatics", Run: RunNW},
		{Name: "HST-S", Full: "Image histogram (short)", Domain: "Image processing", Run: RunHSTS},
		{Name: "HST-L", Full: "Image histogram (long)", Domain: "Image processing", Run: RunHSTL},
		{Name: "RED", Full: "Reduction", Domain: "Parallel primitives", Run: RunRED},
		{Name: "SCAN-SSA", Full: "Prefix sum (scan-scan-add)", Domain: "Parallel primitives", Run: RunSCANSSA},
		{Name: "SCAN-RSS", Full: "Prefix sum (reduce-scan-scan)", Domain: "Parallel primitives", Run: RunSCANRSS},
		{Name: "TRNS", Full: "Matrix transposition", Domain: "Parallel primitives", Run: RunTRNS},
	}
}

// Lookup finds an application by short name (case-sensitive).
func Lookup(name string) (App, error) {
	for _, a := range Apps() {
		if a.Name == name {
			return a, nil
		}
	}
	return App{}, fmt.Errorf("prim: unknown application %q", name)
}

// Names lists the short names in Table 1 order.
func Names() []string {
	apps := Apps()
	out := make([]string, len(apps))
	for i, a := range apps {
		out[i] = a.Name
	}
	return out
}

// --- Prepared datasets ----------------------------------------------------

// Every application's host program has two parts. Its prepare function is
// pure: from Params alone it builds the inputs (every draw from p.Rand())
// and the expected outputs of any CPU reference that costs more than
// constant work per output element. The run allocates guest buffers,
// pushes, launches, pulls and compares; a check that compares each output
// element with one expression of the inputs (VA, SCAN, TRNS, BS) stays in
// the run, so the prepared value holds no output-sized array the run does
// not already hold.

// lastPrepared is prepared's one entry: the most recent (app, Params) and
// what its prepare function built. It is process-wide because App.Run's
// callers hand a run nothing but its Params. Since a value depends on its
// key alone, callers sharing the entry can change what a run costs, never
// what it computes.
var lastPrepared struct {
	sync.Mutex
	app string
	p   Params
	v   any
}

// prepared returns what prepare builds for app at p, reusing the previous
// call's value when it was for the same app and Params. Fig 8 runs each app
// natively and then under vPIM with equal Params, a conformance matrix row
// runs one app in every configuration, and Fig 14 runs it once per variant,
// so the run after the first skips generation and references entirely. A
// new key replaces the entry, and the old value is dropped before the new
// one is built, so memory stays bounded by one dataset.
//
// The value is shared by every run of its key, concurrent ones included:
// runs only read it. Inputs reach the device through copies into guest
// buffers (allocU32); a run never writes into a prepared slice nor appends
// to one. TestPreparedReadOnly holds that.
//
// prepare runs outside the lock, so concurrent misses on one key may each
// build it; the last to finish stays.
func prepared[T any](app string, p Params, prepare func(Params) T) T {
	p = p.withDefaults()
	m := &lastPrepared
	m.Lock()
	if m.v != nil && m.app == app && m.p == p {
		v := m.v.(T)
		m.Unlock()
		return v
	}
	m.v = nil
	m.Unlock()
	v := prepare(p)
	m.Lock()
	m.app, m.p, m.v = app, p, v
	m.Unlock()
	return v
}

// --- Buffer helpers -------------------------------------------------------

// allocU32 allocates a guest/host buffer holding n uint32 values.
func allocU32(env sdk.Env, vals []uint32) (hostmem.Buffer, error) {
	buf, err := env.AllocBuffer(4 * len(vals))
	if err != nil {
		return hostmem.Buffer{}, err
	}
	for i, v := range vals {
		binary.LittleEndian.PutUint32(buf.Data[4*i:], v)
	}
	return buf, nil
}

// subBuf slices a buffer: the returned Buffer aliases bytes [off, off+n).
func subBuf(b hostmem.Buffer, off, n int) hostmem.Buffer {
	return hostmem.Buffer{GPA: b.GPA + uint64(off), Data: b.Data[off : off+n]}
}

// pushSlices is PrIM's parallel transfer: DPU_FOREACH prepares each DPU d's
// slice of buf, n bytes from d*stride, and one dpu_push_xfer moves n bytes
// per DPU at MRAM offset off. Stride 0 prepares buf itself for every DPU,
// the shared-buffer push that native sharedBuffer, the driver's broadcast
// mask and the backend's sameSource recognise.
func pushSlices(set *sdk.Set, dir sdk.Direction, off int64, buf hostmem.Buffer, stride, n int) error {
	for d := 0; d < set.NumDPUs(); d++ {
		b := buf
		if stride != 0 {
			b = subBuf(buf, d*stride, n)
		}
		if err := set.PrepareXfer(d, b); err != nil {
			return err
		}
	}
	return set.PushXfer(dir, off, n)
}

// u32At reads the i-th uint32 of a byte slice.
func u32At(b []byte, i int) uint32 { return binary.LittleEndian.Uint32(b[4*i:]) }

// putU32At writes the i-th uint32 of a byte slice.
func putU32At(b []byte, i int, v uint32) { binary.LittleEndian.PutUint32(b[4*i:], v) }

// u64At reads the i-th uint64 of a byte slice.
func u64At(b []byte, i int) uint64 { return binary.LittleEndian.Uint64(b[8*i:]) }

// padTo rounds n up to a multiple of align.
func padTo(n, align int) int { return (n + align - 1) / align * align }

// setU32Sym broadcasts a uint32 host symbol value to all DPUs of the set.
func setU32Sym(set *sdk.Set, name string, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return set.BroadcastSym(name, 0, b[:])
}

// setU32SymAt writes a uint32 host symbol on one DPU.
func setU32SymAt(set *sdk.Set, dpu int, name string, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return set.CopyToSym(dpu, name, 0, b[:])
}

// getU64Sym reads a uint64 host symbol from one DPU.
func getU64Sym(set *sdk.Set, dpu int, name string) (uint64, error) {
	var b [8]byte
	if err := set.CopyFromSym(dpu, name, 0, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// getU32Sym reads a uint32 host symbol from one DPU.
func getU32Sym(set *sdk.Set, dpu int, name string) (uint32, error) {
	var b [4]byte
	if err := set.CopyFromSym(dpu, name, 0, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

// sortedU32 generates n sorted distinct-ish random uint32 values.
func sortedU32(r *rand.Rand, n int) []uint32 {
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = uint32(r.Intn(1 << 30))
	}
	slices.Sort(vals)
	return vals
}
