package pim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cost"
)

// launchWithin runs r.Launch(dpus) and fails the test if it has not
// returned within a generous bound, so a hung launch fails the test instead
// of hanging the suite.
func launchWithin(t *testing.T, r *Rank, dpus []int) (LaunchResult, error) {
	t.Helper()
	type outcome struct {
		res LaunchResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := r.Launch(dpus)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		return o.res, o.err
	case <-time.After(10 * time.Second):
		t.Fatalf("Launch(%v) did not return within 10s", dpus)
		return LaunchResult{}, nil
	}
}

// loadAll loads k onto every listed DPU.
func loadAll(t testing.TB, r *Rank, k *Kernel, dpus ...int) {
	t.Helper()
	for _, d := range dpus {
		if err := r.LoadProgram(d, k); err != nil {
			t.Fatal(err)
		}
	}
}

// markKernel records on each DPU that it ran, in host symbol "ran".
var markKernel = &Kernel{
	Name: "mark", Tasklets: 2,
	Symbols: []Symbol{{Name: "ran", Bytes: 4}},
	Run: func(ctx *Ctx) error {
		ctx.Barrier()
		if ctx.Me() == 0 {
			return ctx.SetHostU32("ran", 1)
		}
		return nil
	},
}

func ran(t *testing.T, r *Rank, d int) bool {
	t.Helper()
	var b [4]byte
	if err := r.SymbolRead(d, "ran", 0, b[:]); err != nil {
		t.Fatal(err)
	}
	return b[0] == 1
}

func TestLaunchTaskletExitsBeforeBarrier(t *testing.T) {
	boom := errors.New("boom")
	var exits atomic.Int64
	k := &Kernel{
		Name: "early-exit", Tasklets: 4,
		Run: func(ctx *Ctx) error {
			defer exits.Add(1)
			if ctx.DPU() == 1 && ctx.Me() == 3 {
				return nil // never reaches the barrier
			}
			ctx.Barrier()
			if ctx.DPU() == 2 && ctx.Me() == 3 {
				return boom // never reaches the second barrier
			}
			ctx.Barrier()
			return nil
		},
	}
	r := testRank(t, 3, 1<<20)
	loadAll(t, r, k, 0, 1, 2)
	for _, tc := range []struct {
		dpu     int
		wantErr error
	}{{1, nil}, {2, boom}} {
		exits.Store(0)
		_, err := launchWithin(t, r, []int{0, tc.dpu})
		if !errors.Is(err, ErrDeadlock) || !strings.HasPrefix(err.Error(), fmt.Sprintf("dpu %d: ", tc.dpu)) {
			t.Errorf("dpu %d: want ErrDeadlock naming the DPU, got %v", tc.dpu, err)
		}
		if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
			t.Errorf("dpu %d: the tasklet's own error is lost: %v", tc.dpu, err)
		}
		// Every tasklet of both DPUs left Run: the parked ones were unwound.
		if got := exits.Load(); got != 8 {
			t.Errorf("dpu %d: %d tasklets left Run, want 8", tc.dpu, got)
		}
	}
	// The rank is not left busy.
	if _, err := launchWithin(t, r, []int{0}); err != nil {
		t.Errorf("launch after a failed launch: %v", err)
	}
}

func TestLaunchMutexHeldAcrossBarrier(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(ctx *Ctx) error
	}{
		{"across barrier", func(ctx *Ctx) error {
			if ctx.Me() == 0 {
				ctx.Lock()
				ctx.Barrier()
				ctx.Barrier()
				ctx.Unlock()
				return nil
			}
			ctx.Barrier()
			ctx.Lock() // tasklet 0 holds it until after the next barrier
			ctx.Unlock()
			ctx.Barrier()
			return nil
		}},
		{"returned holding", func(ctx *Ctx) error {
			ctx.Lock() // the first locker returns without unlocking
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := testRank(t, 2, 1<<20)
			loadAll(t, r, &Kernel{Name: "mutex", Tasklets: 4, Run: tc.run}, 1)
			_, err := launchWithin(t, r, []int{1})
			if !errors.Is(err, ErrDeadlock) || !strings.HasPrefix(err.Error(), "dpu 1: ") {
				t.Fatalf("want ErrDeadlock naming dpu 1, got %v", err)
			}
			loadAll(t, r, markKernel, 1)
			if _, err := launchWithin(t, r, []int{1}); err != nil || !ran(t, r, 1) {
				t.Errorf("launch after a failed launch: %v", err)
			}
		})
	}
}

// TestLaunchPanicIsDPUFault: a kernel that panics faults its DPU instead of
// the host. Tasklet 3 of dpu 1 indexes out of range while tasklets 0-2 wait
// at the barrier; they are unwound, the launch fails with ErrDPUFault naming
// the DPU and wrapping the runtime error, and after a reset the rank runs
// the next kernel.
func TestLaunchPanicIsDPUFault(t *testing.T) {
	var exits atomic.Int64
	k := &Kernel{
		Name: "oob", Tasklets: 4,
		Run: func(ctx *Ctx) error {
			defer exits.Add(1)
			if ctx.DPU() == 1 && ctx.Me() == 3 {
				var hist [4]uint32
				hist[ctx.Me()+ctx.DPU()]++ // index 4: out of range
			}
			ctx.Barrier()
			return nil
		},
	}
	r := testRank(t, 2, 1<<20)
	loadAll(t, r, k, 0, 1)
	_, err := launchWithin(t, r, []int{0, 1})
	if !errors.Is(err, ErrDPUFault) || !strings.HasPrefix(err.Error(), "dpu 1: ") {
		t.Fatalf("want ErrDPUFault naming dpu 1, got %v", err)
	}
	var rerr runtime.Error
	if !errors.As(err, &rerr) {
		t.Errorf("the panic value is not wrapped: %v", err)
	}
	if got := exits.Load(); got != 8 {
		t.Errorf("%d tasklets left Run, want 8", got)
	}
	r.Reset()
	loadAll(t, r, markKernel, 0, 1)
	if _, err := launchWithin(t, r, []int{0, 1}); err != nil || !ran(t, r, 0) || !ran(t, r, 1) {
		t.Errorf("launch after a reset: %v", err)
	}
}

// TestLaunchRejectsBadDPUList checks the list before any DPU runs.
func TestLaunchRejectsBadDPUList(t *testing.T) {
	for _, tc := range []struct {
		name string
		dpus []int
		want error
	}{
		{"out of range", []int{0, 1, 4}, ErrBadDPU},
		{"negative", []int{0, -1}, ErrBadDPU},
		{"duplicate", []int{0, 1, 0}, ErrBadDPU},
		{"no program", []int{0, 1, 3}, ErrNoProgram},
		{"duplicate before no program", []int{1, 1, 3}, ErrBadDPU},
		{"no program before out of range", []int{0, 3, 9}, ErrNoProgram},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := testRank(t, 4, 1<<20)
			loadAll(t, r, markKernel, 0, 1, 2)
			if _, err := launchWithin(t, r, tc.dpus); !errors.Is(err, tc.want) {
				t.Fatalf("Launch(%v) = %v, want %v", tc.dpus, err, tc.want)
			}
			for d := 0; d < 3; d++ {
				if ran(t, r, d) {
					t.Errorf("dpu %d ran although the list was rejected", d)
				}
			}
		})
	}
}

// TestLaunchReportsFirstListedFailure: whichever DPUs run concurrently, the
// error names the failing DPU that comes first in the list.
func TestLaunchReportsFirstListedFailure(t *testing.T) {
	r := testRank(t, 8, 1<<20)
	k := &Kernel{
		Name: "fail-odd", Tasklets: 2,
		Run: func(ctx *Ctx) error {
			ctx.Barrier()
			if ctx.DPU()%2 == 1 && ctx.Me() == 1 {
				return fmt.Errorf("odd dpu %d", ctx.DPU())
			}
			return nil
		},
	}
	loadAll(t, r, k, 0, 1, 2, 3, 4, 5, 6, 7)
	for i := 0; i < 20; i++ {
		_, err := launchWithin(t, r, []int{6, 4, 5, 2, 3, 0, 1, 7})
		if err == nil || err.Error() != "dpu 5: odd dpu 5" {
			t.Fatalf("got %v, want the error of dpu 5", err)
		}
	}
}

// mixKernel sums the n words (host symbol "n") of its DPU's MRAM through
// the mutex into a shared WRAM accumulator, and tasklet 0 stores the sum
// after the input, at 512 KiB and in host symbol "sum".
func mixKernel(name string, tasklets int) *Kernel {
	return &Kernel{
		Name: name, Tasklets: tasklets,
		Symbols: []Symbol{{Name: "n", Bytes: 4}, {Name: "sum", Bytes: 8}},
		Run: func(ctx *Ctx) error {
			if ctx.Me() == 0 {
				ctx.ResetHeap()
			}
			ctx.Barrier()
			n32, err := ctx.HostU32("n")
			if err != nil {
				return err
			}
			n := int(n32)
			acc, err := ctx.Shared("acc", 8)
			if err != nil {
				return err
			}
			buf, err := ctx.Alloc(128)
			if err != nil {
				return err
			}
			var local uint64
			for off := 32 * ctx.Me(); off < n; off += 32 * ctx.NumTasklets() {
				cnt := min(32, n-off)
				if err := ctx.MRAMRead(int64(off)*4, buf[:cnt*4]); err != nil {
					return err
				}
				for i := 0; i < cnt; i++ {
					local += uint64(binary.LittleEndian.Uint32(buf[4*i:]))
				}
				ctx.Tick(int64(cnt)*3 + int64(ctx.Me()))
			}
			ctx.Lock()
			binary.LittleEndian.PutUint64(acc, binary.LittleEndian.Uint64(acc)+local)
			ctx.Unlock()
			ctx.Barrier()
			if ctx.Me() != 0 {
				return nil
			}
			if err := ctx.MRAMWrite(acc, int64(n+n%2)*4); err != nil {
				return err
			}
			// The block at 512 KiB lies in an uncommitted chunk of each
			// DPU's bank, so DPUs on different workers commit concurrently.
			if err := ctx.MRAMWrite(acc, 512<<10); err != nil {
				return err
			}
			return ctx.SetHostU64("sum", binary.LittleEndian.Uint64(acc))
		},
	}
}

// mixRank builds a 60-DPU rank whose even DPUs run a 16-tasklet kernel and
// odd DPUs a 5-tasklet one (below the 11-tasklet pipeline threshold), each
// over a DPU-specific number of input words.
func mixRank(t *testing.T) *Rank {
	r := testRank(t, 60, 1<<20)
	wide, narrow := mixKernel("mix16", 16), mixKernel("mix5", 5)
	rng := rand.New(rand.NewSource(7))
	for d := 0; d < 60; d++ {
		k := wide
		if d%2 == 1 {
			k = narrow
		}
		loadAll(t, r, k, d)
		n := 500 + 97*d
		in := make([]byte, 4*n)
		rng.Read(in)
		if err := r.WriteDPU(d, 0, in); err != nil {
			t.Fatal(err)
		}
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(n))
		if err := r.SymbolWrite(d, "n", 0, b[:]); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// TestLaunchMatchesSingleDPULaunches: one launch of 60 DPUs on a rank gives
// the numbers, MRAM and symbols of 60 one-DPU launches, one after another,
// on a twin rank.
func TestLaunchMatchesSingleDPULaunches(t *testing.T) {
	all, twin := mixRank(t), mixRank(t)
	dpus := make([]int, 60)
	for i := range dpus {
		dpus[i] = (i * 7) % 60 // a permutation: PerDPU follows list order
	}
	got, err := launchWithin(t, all, dpus)
	if err != nil {
		t.Fatal(err)
	}
	var want LaunchResult
	for _, d := range dpus {
		one, err := launchWithin(t, twin, []int{d})
		if err != nil {
			t.Fatal(err)
		}
		want.PerDPU = append(want.PerDPU, one.PerDPU[0])
		want.Instructions += one.Instructions
		want.Duration = max(want.Duration, one.Duration)
	}
	if got.Duration != want.Duration || got.Instructions != want.Instructions {
		t.Errorf("launch: %v, %d instructions; one-DPU launches: %v, %d",
			got.Duration, got.Instructions, want.Duration, want.Instructions)
	}
	distinct := map[time.Duration]bool{}
	for i, d := range dpus {
		distinct[want.PerDPU[i]] = true
		if got.PerDPU[i] != want.PerDPU[i] {
			t.Errorf("dpu %d: %v, one-DPU launch %v", d, got.PerDPU[i], want.PerDPU[i])
		}
	}
	if len(distinct) < 30 {
		t.Errorf("only %d distinct per-DPU times: the workload does not tell DPUs apart", len(distinct))
	}
	a, b := make([]byte, 1<<20), make([]byte, 1<<20)
	for d := 0; d < 60; d++ {
		if err := all.ReadDPU(d, 0, a); err != nil {
			t.Fatal(err)
		}
		if err := twin.ReadDPU(d, 0, b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("dpu %d: MRAM differs", d)
		}
		for _, sym := range []Symbol{{"n", 4}, {"sum", 8}} {
			sa, sb := make([]byte, sym.Bytes), make([]byte, sym.Bytes)
			if err := all.SymbolRead(d, sym.Name, 0, sa); err != nil {
				t.Fatal(err)
			}
			if err := twin.SymbolRead(d, sym.Name, 0, sb); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sa, sb) {
				t.Errorf("dpu %d: symbol %s = %x, one-DPU launch %x", d, sym.Name, sa, sb)
			}
		}
	}
}

func TestLaunchLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	r := testRank(t, 8, 1<<20)
	loadAll(t, r, mixKernel("mix16", 16), 0, 1, 2, 3)
	loadAll(t, r, &Kernel{
		Name: "fail", Tasklets: 3,
		Run: func(ctx *Ctx) error {
			if ctx.Me() == 1 {
				return errors.New("boom")
			}
			return nil
		},
	}, 4)
	loadAll(t, r, &Kernel{
		Name: "deadlock", Tasklets: 6,
		Run: func(ctx *Ctx) error {
			if ctx.Me() == 5 {
				return nil
			}
			ctx.Barrier()
			return nil
		},
	}, 5)
	for _, tc := range []struct {
		dpus []int
		ok   bool
	}{
		{[]int{0, 1, 2, 3}, true},
		{[]int{0, 1, 4, 2, 3}, false},
		{[]int{5, 0, 1}, false},
		{[]int{3}, true},
	} {
		if _, err := launchWithin(t, r, tc.dpus); (err == nil) != tc.ok {
			t.Fatalf("Launch(%v) = %v", tc.dpus, err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the launches, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkLaunch times one 60-DPU, 16-tasklet launch shaped like three
// workloads: nw (many short launches, one barrier, a few small DMAs per
// tasklet), hst (a per-element mutex around a shared WRAM histogram) and
// checksum (streaming MRAM reads between two barriers).
func BenchmarkLaunch(b *testing.B) {
	for _, bc := range []struct {
		name  string
		words int
		run   func(ctx *Ctx) error
	}{
		{"nw", 16 * 272, benchNW},
		{"hst", 4096, benchHST},
		{"checksum", 16 << 10, benchChecksum},
	} {
		b.Run(bc.name, func(b *testing.B) {
			r := NewRank(0, RankConfig{DPUs: 60, MRAMBytes: 1 << 20}, cost.Default())
			k := &Kernel{
				Name: bc.name, Tasklets: 16,
				Symbols: []Symbol{{Name: "n", Bytes: 4}},
				Run:     bc.run,
			}
			rng := rand.New(rand.NewSource(1))
			in := make([]byte, 4*bc.words)
			dpus := make([]int, 60)
			for d := range dpus {
				dpus[d] = d
				loadAll(b, r, k, d)
				rng.Read(in)
				if err := r.WriteDPU(d, 0, in); err != nil {
					b.Fatal(err)
				}
				var n [4]byte
				binary.LittleEndian.PutUint32(n[:], uint32(bc.words))
				if err := r.SymbolWrite(d, "n", 0, n[:]); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Launch(dpus); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchNW: after the heap-reset barrier each tasklet reads two host
// symbols, one 1088-byte slot in two DMAs, scores it and writes 544 bytes.
func benchNW(ctx *Ctx) error {
	if ctx.Me() == 0 {
		ctx.ResetHeap()
	}
	ctx.Barrier()
	if _, err := ctx.HostU32("n"); err != nil {
		return err
	}
	if _, err := ctx.HostU32("n"); err != nil {
		return err
	}
	slot, err := ctx.Alloc(1088)
	if err != nil {
		return err
	}
	base := int64(ctx.Me()) * 1088
	if err := ctx.MRAMRead(base, slot[:1024]); err != nil {
		return err
	}
	if err := ctx.MRAMRead(base+1024, slot[1024:]); err != nil {
		return err
	}
	var h uint32
	for i := 0; i+4 <= len(slot); i += 4 {
		h = h*31 + binary.LittleEndian.Uint32(slot[i:])
	}
	binary.LittleEndian.PutUint32(slot, h)
	ctx.Tick(640)
	return ctx.MRAMWrite(slot[:544], 16*1088+int64(ctx.Me())*544)
}

// benchHST: 1024 shared bins, each increment under the DPU mutex.
func benchHST(ctx *Ctx) error {
	if ctx.Me() == 0 {
		ctx.ResetHeap()
	}
	ctx.Barrier()
	n32, err := ctx.HostU32("n")
	if err != nil {
		return err
	}
	n, nt := int(n32), ctx.NumTasklets()
	hist, err := ctx.Shared("hist", 4*1024)
	if err != nil {
		return err
	}
	buf, err := ctx.Alloc(1024)
	if err != nil {
		return err
	}
	per := (n + nt - 1) / nt
	for off := ctx.Me() * per; off < min(n, (ctx.Me()+1)*per); off += 256 {
		cnt := min(256, n-off)
		if err := ctx.MRAMRead(int64(off)*4, buf[:cnt*4]); err != nil {
			return err
		}
		for i := 0; i < cnt; i++ {
			bin := 4 * int(binary.LittleEndian.Uint32(buf[4*i:])>>22)
			ctx.Lock()
			binary.LittleEndian.PutUint32(hist[bin:], binary.LittleEndian.Uint32(hist[bin:])+1)
			ctx.Unlock()
		}
		ctx.Tick(int64(cnt) * 10)
	}
	ctx.Barrier()
	if ctx.Me() == 0 {
		for off := 0; off < len(hist); off += 2048 {
			if err := ctx.MRAMWrite(hist[off:off+2048], int64(n)*4+int64(off)); err != nil {
				return err
			}
		}
	}
	return nil
}

// benchChecksum: each tasklet sums its share of the words in 2048-byte
// DMAs; tasklet 0 stores the total after the input.
func benchChecksum(ctx *Ctx) error {
	if ctx.Me() == 0 {
		ctx.ResetHeap()
	}
	ctx.Barrier()
	n32, err := ctx.HostU32("n")
	if err != nil {
		return err
	}
	n, nt := int(n32), ctx.NumTasklets()
	table, err := ctx.Shared("partials", 8*nt)
	if err != nil {
		return err
	}
	buf, err := ctx.Alloc(2048)
	if err != nil {
		return err
	}
	per := (n + nt - 1) / nt
	var sum uint64
	for off := ctx.Me() * per; off < min(n, (ctx.Me()+1)*per); off += 512 {
		cnt := min(512, n-off)
		if err := ctx.MRAMRead(int64(off)*4, buf[:cnt*4]); err != nil {
			return err
		}
		for i := 0; i < cnt; i++ {
			sum += uint64(binary.LittleEndian.Uint32(buf[4*i:]))
		}
		ctx.Tick(int64(cnt) * 4)
	}
	binary.LittleEndian.PutUint64(table[8*ctx.Me():], sum)
	ctx.Barrier()
	if ctx.Me() == 0 {
		var total [8]byte
		for t := 0; t < nt; t++ {
			sum += binary.LittleEndian.Uint64(table[8*t:])
		}
		binary.LittleEndian.PutUint64(total[:], sum)
		return ctx.MRAMWrite(total[:], int64(n)*4)
	}
	return nil
}
