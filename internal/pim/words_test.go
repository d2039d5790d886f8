package pim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
)

// launchOne runs body as the one tasklet of a kernel on DPU 0 of r and
// returns the launch's duration. body charges no instructions, so that
// duration is its DMA time.
func launchOne(t *testing.T, r *Rank, body func(ctx *Ctx)) time.Duration {
	t.Helper()
	k := &Kernel{Name: "one", Tasklets: 1, Run: func(ctx *Ctx) error { body(ctx); return nil }}
	if err := r.LoadProgram(0, k); err != nil {
		t.Fatal(err)
	}
	res, err := r.Launch([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	return res.Duration
}

// byteLoop is the reference a typed DMA must match: the loop of byte DMAs a
// kernel would write, at most 2048 bytes each from the start of b,
// stopping at the first error.
func byteLoop(b []byte, dma func(i int, part []byte) error) error {
	for i := 0; i < len(b); i += MaxDMABytes {
		if err := dma(i, b[i:min(i+MaxDMABytes, len(b))]); err != nil {
			return err
		}
	}
	return nil
}

// sameErr reports whether two DMA outcomes are the same: both nil, or the
// same error text.
func sameErr(a, b error) bool { return fmt.Sprint(a) == fmt.Sprint(b) }

func TestTypedDMAMatchesByteLoop(t *testing.T) {
	t.Run("u32", func(t *testing.T) {
		testTypedDMA(t, (*Ctx).AllocU32, (*Ctx).ReadU32, (*Ctx).WriteU32,
			binary.LittleEndian.Uint32, binary.LittleEndian.PutUint32)
	})
	t.Run("u64", func(t *testing.T) {
		shared := func(ctx *Ctx, n int) ([]uint64, error) { return ctx.SharedU64("words", n) }
		testTypedDMA(t, shared, (*Ctx).ReadU64, (*Ctx).WriteU64,
			binary.LittleEndian.Uint64, binary.LittleEndian.PutUint64)
	})
}

// testTypedDMA checks typed reads and writes of random offsets and lengths
// against the byte loop plus a little-endian decode or encode: the same
// words, the same MRAM bytes, the same DMA time and the same error.
func testTypedDMA[T uint32 | uint64](t *testing.T,
	alloc func(*Ctx, int) ([]T, error),
	read func(*Ctx, int64, []T) error,
	write func(*Ctx, []T, int64) error,
	get func([]byte) T, put func([]byte, T)) {
	const mram = 64 << 10
	size := len(bytesOf(make([]T, 1)))
	rng := rand.New(rand.NewSource(1))
	image := make([]byte, mram)
	typed := testRank(t, 1, mram)
	loop := testRank(t, 1, mram)
	var sawAlign, sawRange, sawLong bool
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(12<<10/size + 1)
		off := int64(rng.Intn((mram-n*size)/8+1)) * 8
		switch rng.Intn(6) {
		case 0:
			off += int64(1 + rng.Intn(7))
		case 1:
			off = mram - int64(rng.Intn(n*size/8+1))*8
		}
		rng.Read(image)
		for _, r := range []*Rank{typed, loop} {
			if err := r.WriteDPU(0, 0, image); err != nil {
				t.Fatal(err)
			}
		}

		// Read.
		var gotT []T
		var errT, errB error
		durT := launchOne(t, typed, func(ctx *Ctx) {
			dst, err := alloc(ctx, n)
			if err != nil {
				t.Error(err)
				return
			}
			errT, gotT = read(ctx, off, dst), dst
		})
		var gotB []byte
		durB := launchOne(t, loop, func(ctx *Ctx) {
			buf, err := ctx.Alloc(n * size)
			if err != nil {
				t.Error(err)
				return
			}
			errB = byteLoop(buf, func(i int, part []byte) error { return ctx.MRAMRead(off+int64(i), part) })
			gotB = buf
		})
		if !sameErr(errT, errB) || durT != durB {
			t.Fatalf("read %d words at %d: typed (%v, %v), byte loop (%v, %v)", n, off, errT, durT, errB, durB)
		}
		if errT == nil {
			for i, v := range gotT {
				if want := get(gotB[size*i:]); v != want {
					t.Fatalf("read %d words at %d: word %d = %#x, want %#x", n, off, i, v, want)
				}
			}
		}
		sawAlign = sawAlign || errors.Is(errT, ErrBadAlignment)
		sawRange = sawRange || errors.Is(errT, ErrOutOfRange)
		sawLong = sawLong || (errT == nil && n*size > MaxDMABytes && n*size%MaxDMABytes != 0)

		// Write.
		src := make([]T, n)
		for i := range src {
			src[i] = T(rng.Uint64())
		}
		durT = launchOne(t, typed, func(ctx *Ctx) {
			buf, err := alloc(ctx, n)
			if err != nil {
				t.Error(err)
				return
			}
			copy(buf, src)
			errT = write(ctx, buf, off)
			if !slices.Equal(buf, src) {
				t.Error("a typed write changed its source")
			}
		})
		durB = launchOne(t, loop, func(ctx *Ctx) {
			buf, err := ctx.Alloc(n * size)
			if err != nil {
				t.Error(err)
				return
			}
			for i, v := range src {
				put(buf[size*i:], v)
			}
			errB = byteLoop(buf, func(i int, part []byte) error { return ctx.MRAMWrite(part, off+int64(i)) })
		})
		if !sameErr(errT, errB) || durT != durB {
			t.Fatalf("write %d words at %d: typed (%v, %v), byte loop (%v, %v)", n, off, errT, durT, errB, durB)
		}
		memT, memB := make([]byte, mram), make([]byte, mram)
		if err := typed.ReadDPU(0, 0, memT); err != nil {
			t.Fatal(err)
		}
		if err := loop.ReadDPU(0, 0, memB); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(memT, memB) {
			t.Fatalf("write %d words at %d: MRAM differs from the byte loop's", n, off)
		}
	}
	if !sawAlign || !sawRange || !sawLong {
		t.Errorf("trials missed a case: misaligned %v, out of range %v, long unaligned length %v", sawAlign, sawRange, sawLong)
	}
}

// TestTypedDMASplit pins the DMA sizes of one long typed read: its time is
// that of two 2048-byte DMAs and one of 904 bytes.
func TestTypedDMASplit(t *testing.T) {
	r := testRank(t, 1, 1<<20)
	got := launchOne(t, r, func(ctx *Ctx) {
		buf, err := ctx.AllocU32(1250)
		if err != nil {
			t.Error(err)
			return
		}
		if err := ctx.ReadU32(64, buf); err != nil {
			t.Error(err)
		}
	})
	m := r.model
	if want := 2*m.MRAMTransfer(2048) + m.MRAMTransfer(904); got != want {
		t.Errorf("5000-byte read took %v, want %v", got, want)
	}
}

// TestTypedWRAMAccounting allocates one random sequence of sizes through
// the typed and the byte forms of Alloc and Shared: each request takes the
// same bytes of the 64 KB heap, so ErrWRAMOverflow fires at the same one.
func TestTypedWRAMAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		sizes := make([]int, 60)
		for i := range sizes {
			sizes[i] = rng.Intn(1024)
		}
		overflowAt := func(alloc func(ctx *Ctx, i, words int) (int, error)) (int, []int) {
			at := -1
			var addrs []int
			launchOne(t, testRank(t, 1, 1<<20), func(ctx *Ctx) {
				for i, n := range sizes {
					addr, err := alloc(ctx, i, n)
					if errors.Is(err, ErrWRAMOverflow) {
						at = i
						return
					}
					if err != nil {
						t.Error(err)
						return
					}
					addrs = append(addrs, addr)
				}
			})
			return at, addrs
		}
		addr := func(buf any) int { return int(reflect.ValueOf(buf).Pointer()) }
		name := func(i int) string { return fmt.Sprint("buf", i) }
		byteAt, _ := overflowAt(func(ctx *Ctx, i, n int) (int, error) {
			if i%2 == 0 {
				b, err := ctx.Alloc(4 * n)
				return addr(b), err
			}
			b, err := ctx.Shared(name(i), 4*n)
			return addr(b), err
		})
		wordAt, u32Addrs := overflowAt(func(ctx *Ctx, i, n int) (int, error) {
			if i%2 == 0 {
				b, err := ctx.AllocU32(n)
				return addr(b), err
			}
			b, err := ctx.SharedU32(name(i), n)
			return addr(b), err
		})
		u64At, u64Addrs := overflowAt(func(ctx *Ctx, i, n int) (int, error) {
			b, err := ctx.SharedU64(name(i), n/2)
			return addr(b), err
		})
		if byteAt < 0 || wordAt != byteAt {
			t.Fatalf("sizes %v: bytes overflow at request %d, uint32 words at %d", sizes, byteAt, wordAt)
		}
		// A uint64 request of n/2 words is 4n bytes when n is even.
		evenAt := -1
		used := 0
		for i, n := range sizes {
			if used += 8 * (n / 2); used > WRAMBytes {
				evenAt = i
				break
			}
		}
		if u64At != evenAt {
			t.Fatalf("sizes %v: uint64 words overflow at request %d, want %d", sizes, u64At, evenAt)
		}
		for _, a := range append(u32Addrs, u64Addrs...) {
			if a%8 != 0 {
				t.Fatalf("typed WRAM buffer at %#x is not 8-byte aligned", a)
			}
		}
	}

	// A shared buffer keeps its name and size check across typed views.
	launchOne(t, testRank(t, 1, 1<<20), func(ctx *Ctx) {
		a, err := ctx.SharedU32("x", 4)
		if err != nil {
			t.Error(err)
			return
		}
		a[1] = 7
		if b, err := ctx.SharedU32("x", 4); err != nil || b[1] != 7 {
			t.Errorf("second SharedU32: %v, %v", b, err)
		}
		if _, err := ctx.SharedU32("x", 3); err == nil {
			t.Error("SharedU32 of a different size succeeded")
		}
		if _, err := ctx.AllocU32(-1); err == nil {
			t.Error("negative AllocU32 succeeded")
		}
	})
}

// TestPartition checks Partition against the per-kernel formula it
// replaced: shares of ceil(n/nt) rounded up to an even count, clamped to n.
func TestPartition(t *testing.T) {
	for _, nt := range []int{1, 11, 16, 24} {
		for n := 0; n <= 6*nt; n++ {
			per := ((n+nt-1)/nt + 1) / 2 * 2
			next := 0
			for me := 0; me < nt; me++ {
				start := me * per
				end := start + per
				if end > n {
					end = n
				}
				if start > n {
					start = n
				}
				c := &Ctx{id: me, st: &runState{kernel: &Kernel{Tasklets: nt}}}
				gotStart, gotEnd := c.Partition(n)
				if gotStart != start || gotEnd != end {
					t.Fatalf("n %d nt %d tasklet %d: [%d, %d), want [%d, %d)", n, nt, me, gotStart, gotEnd, start, end)
				}
				if gotStart != next || gotEnd < gotStart {
					t.Fatalf("n %d nt %d tasklet %d: [%d, %d) does not follow %d", n, nt, me, gotStart, gotEnd, next)
				}
				next = gotEnd
			}
			if next != n {
				t.Fatalf("n %d nt %d: shares end at %d", n, nt, next)
			}
		}
	}
}

// TestSwapWords exercises the big-endian branch of the typed DMAs on any
// host: the swap helper reverses each word's bytes and round-trips, and
// with the branch forced on, a write stores the words byte-swapped, leaves
// its source as it was, and a read undoes it.
func TestSwapWords(t *testing.T) {
	u32 := []uint32{0x01020304, 0xa0b0c0d0}
	swapWords(bytesOf(u32), 4)
	if !slices.Equal(u32, []uint32{0x04030201, 0xd0c0b0a0}) {
		t.Errorf("swapped uint32 words: %#x", u32)
	}
	u64 := []uint64{0x0102030405060708}
	swapWords(bytesOf(u64), 8)
	if u64[0] != 0x0807060504030201 {
		t.Errorf("swapped uint64 word: %#x", u64[0])
	}
	rng := rand.New(rand.NewSource(3))
	words := make([]uint64, 100)
	for i := range words {
		words[i] = rng.Uint64()
	}
	for _, size := range []int{4, 8} {
		twice := slices.Clone(words)
		swapWords(bytesOf(twice), size)
		if slices.Equal(twice, words) {
			t.Errorf("swapping %d-byte words once changed nothing", size)
		}
		swapWords(bytesOf(twice), size)
		if !slices.Equal(twice, words) {
			t.Errorf("swapping %d-byte words twice does not round-trip", size)
		}
	}

	defer func(was bool) { bigEndian = was }(bigEndian)
	bigEndian = !bigEndian
	r := testRank(t, 1, 1<<20)
	src := []uint32{0x01020304, 0x05060708}
	var got []uint32
	launchOne(t, r, func(ctx *Ctx) {
		if err := ctx.WriteU32(src, 8); err != nil {
			t.Error(err)
		}
		got = make([]uint32, len(src))
		if err := ctx.ReadU32(8, got); err != nil {
			t.Error(err)
		}
	})
	if !slices.Equal(src, []uint32{0x01020304, 0x05060708}) || !slices.Equal(got, src) {
		t.Errorf("forced swap: source %#x, read back %#x", src, got)
	}
	mem := make([]byte, 8)
	if err := r.ReadDPU(0, 8, mem); err != nil {
		t.Fatal(err)
	}
	// Host order with the swap forced on a little-endian host, and without
	// it on a big-endian one, both store most significant byte first.
	if want := []byte{1, 2, 3, 4, 5, 6, 7, 8}; !bytes.Equal(mem, want) {
		t.Errorf("forced swap stored % x, want % x", mem, want)
	}
}
