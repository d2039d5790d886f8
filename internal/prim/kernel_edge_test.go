package prim

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/pim"
)

// Kernel-level boundary tests: run individual DPU kernels directly on a
// rank (no SDK, no virtualization) at partition boundaries the suite runs
// never hit.

func kernelRank(t *testing.T, k *pim.Kernel) *pim.Rank {
	t.Helper()
	r := pim.NewRank(0, pim.RankConfig{DPUs: 1, MRAMBytes: 4 << 20}, cost.Default())
	if err := r.LoadProgram(0, k); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestHSTKernelWidePixelsFaultDPU: pixels wider than hstDepth index past
// HST-L's histogram. The kernel does not check its input, as on hardware;
// the launch fails with a DPU fault naming the DPU, and after a reset the
// rank runs the kernel on valid input.
func TestHSTKernelWidePixelsFaultDPU(t *testing.T) {
	k := hstKernel("prim/hst-l", hstBinsLong, false)
	r := kernelRank(t, k)
	if err := r.WriteDPU(0, 0, bytes.Repeat([]byte{0xFF}, 4<<10)); err != nil {
		t.Fatal(err)
	}
	if err := r.SymbolWrite(0, "hst_n", 0, []byte{0, 4, 0, 0}); err != nil { // 1024
		t.Fatal(err)
	}
	_, err := r.Launch([]int{0})
	if !errors.Is(err, pim.ErrDPUFault) || !strings.HasPrefix(err.Error(), "dpu 0: ") {
		t.Fatalf("launch = %v, want a DPU fault naming dpu 0", err)
	}
	r.Reset()
	if err := r.LoadProgram(0, k); err != nil {
		t.Fatal(err)
	}
	if err := r.SymbolWrite(0, "hst_n", 0, []byte{0, 4, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Launch([]int{0}); err != nil {
		t.Fatalf("launch after a reset: %v", err)
	}
}

// TestScanKernelTinyInput: fewer elements than tasklets (some tasklets get
// empty ranges) must still produce a correct inclusive scan.
func TestScanKernelTinyInput(t *testing.T) {
	r := kernelRank(t, scanScanKernel())
	const n = 6 // < 16 tasklets
	in := make([]byte, n*4)
	for i := 0; i < n; i++ {
		putU32At(in, i, uint32(i+1))
	}
	if err := r.WriteDPU(0, 0, in); err != nil {
		t.Fatal(err)
	}
	if err := r.SymbolWrite(0, "scan_n", 0, []byte{n, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Launch([]int{0}); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, n*4)
	if err := r.ReadDPU(0, int64(n)*4, out); err != nil {
		t.Fatal(err)
	}
	running := uint32(0)
	for i := 0; i < n; i++ {
		running += uint32(i + 1)
		if got := u32At(out, i); got != running {
			t.Errorf("scan[%d] = %d, want %d", i, got, running)
		}
	}
}

// TestChecksumStyleRoundUp: the RED kernel must cover every element when
// the count does not divide the tasklet count (the class of bug found and
// fixed in the checksum kernel during calibration).
func TestREDKernelIndivisibleCount(t *testing.T) {
	r := kernelRank(t, redKernel())
	const n = 1003 // prime-ish, not divisible by 16
	in := make([]byte, PadTo(n*4, 8))
	var want uint64
	for i := 0; i < n; i++ {
		putU32At(in, i, uint32(i))
		want += uint64(i)
	}
	if err := r.WriteDPU(0, 0, in); err != nil {
		t.Fatal(err)
	}
	resOff := PadTo(n*4, 8)
	var nb, ob [4]byte
	putU32At(nb[:], 0, n)
	putU32At(ob[:], 0, uint32(resOff))
	if err := r.SymbolWrite(0, "red_n", 0, nb[:]); err != nil {
		t.Fatal(err)
	}
	if err := r.SymbolWrite(0, "red_result_off", 0, ob[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Launch([]int{0}); err != nil {
		t.Fatal(err)
	}
	partials := make([]byte, 8*DefaultTasklets)
	if err := r.ReadDPU(0, int64(resOff), partials); err != nil {
		t.Fatal(err)
	}
	var got uint64
	for i := 0; i < DefaultTasklets; i++ {
		got += u64At(partials, i)
	}
	if got != want {
		t.Errorf("sum = %d, want %d (indivisible element count dropped work?)", got, want)
	}
}

// TestHSTKernelAllOneBin: a degenerate image (every pixel identical) must
// put everything in a single bin through the mutex-guarded shared-histogram
// path.
func TestHSTKernelAllOneBin(t *testing.T) {
	r := kernelRank(t, hstKernel("hst-test", hstBinsLong, false))
	const n = 4096
	in := make([]byte, n*4)
	for i := 0; i < n; i++ {
		putU32At(in, i, 5) // all pixels identical
	}
	if err := r.WriteDPU(0, 0, in); err != nil {
		t.Fatal(err)
	}
	var nb [4]byte
	putU32At(nb[:], 0, n)
	if err := r.SymbolWrite(0, "hst_n", 0, nb[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Launch([]int{0}); err != nil {
		t.Fatal(err)
	}
	hist := make([]byte, 4*hstBinsLong)
	if err := r.ReadDPU(0, int64(n)*4, hist); err != nil {
		t.Fatal(err)
	}
	shift := uint(hstDepth) - uint(log2(hstBinsLong))
	var total uint32
	for b := 0; b < hstBinsLong; b++ {
		v := u32At(hist, b)
		total += v
		if b != int(5>>shift) && v != 0 {
			t.Errorf("bin %d = %d, want 0", b, v)
		}
	}
	if total != n {
		t.Errorf("histogram total = %d, want %d", total, n)
	}
}
