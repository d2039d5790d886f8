package hostmem

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/obs"
)

func TestAllocPageAligned(t *testing.T) {
	m := New(1 << 20)
	a, err := m.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if a.GPA%PageSize != 0 || b.GPA%PageSize != 0 {
		t.Errorf("allocations not page aligned: %#x %#x", a.GPA, b.GPA)
	}
	if b.GPA == a.GPA {
		t.Error("allocations overlap")
	}
}

func TestAllocExhaustion(t *testing.T) {
	m := New(2 * PageSize)
	if _, err := m.Alloc(PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Alloc(2 * PageSize); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("want ErrOutOfMemory, got %v", err)
	}
	// Rounding this request up to a page would overflow.
	if _, err := m.Alloc(math.MaxInt); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("Alloc(MaxInt): want ErrOutOfMemory, got %v", err)
	}
}

func TestAllocNegative(t *testing.T) {
	m := New(1 << 20)
	if _, err := m.Alloc(-1); err == nil {
		t.Error("negative allocation must fail")
	}
}

func TestBufferPages(t *testing.T) {
	m := New(1 << 20)
	buf, err := m.Alloc(PageSize + 1)
	if err != nil {
		t.Fatal(err)
	}
	pages := buf.Pages()
	if len(pages) != 2 {
		t.Fatalf("4097-byte buffer spans %d pages, want 2", len(pages))
	}
	if pages[0] != buf.GPA || pages[1] != buf.GPA+PageSize {
		t.Errorf("page GPAs wrong: %#x %#x", pages[0], pages[1])
	}
	if got := (Buffer{}).Pages(); got != nil {
		t.Errorf("empty buffer pages = %v, want nil", got)
	}
}

// TestUnalignedSubBufferPages covers sub-slices of allocations: an arbitrary
// userspace pointer handed to dpu_prepare_xfer.
func TestUnalignedSubBufferPages(t *testing.T) {
	m := New(1 << 20)
	buf, err := m.Alloc(4 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	sub := Buffer{GPA: buf.GPA + 100, Data: buf.Data[100 : 100+PageSize]}
	pages := sub.Pages()
	if len(pages) != 2 {
		t.Fatalf("unaligned page-sized buffer must span 2 pages, got %d", len(pages))
	}
}

func TestZeroCopyVisibility(t *testing.T) {
	m := New(1 << 20)
	buf, err := m.Alloc(3 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	copy(buf.Data, []byte("zero-copy"))
	page, err := m.Translate(buf.GPA)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(page, []byte("zero-copy")) {
		t.Error("Translate does not alias the buffer")
	}
	page[0] = 'Z'
	if buf.Data[0] != 'Z' {
		t.Error("writes through the translated page must be guest visible")
	}
}

func TestTranslateErrors(t *testing.T) {
	m := New(1 << 20)
	if _, err := m.Translate(123); !errors.Is(err, ErrBadAddress) {
		t.Errorf("unaligned GPA: want ErrBadAddress, got %v", err)
	}
	if _, err := m.Translate(1 << 30); !errors.Is(err, ErrBadAddress) {
		t.Errorf("out of range GPA: want ErrBadAddress, got %v", err)
	}
	if _, err := m.Translate(512 * 1024); !errors.Is(err, ErrNotTranslated) {
		t.Errorf("unmapped page: want ErrNotTranslated, got %v", err)
	}
}

func TestSliceWithinAllocation(t *testing.T) {
	m := New(1 << 20)
	buf, err := m.Alloc(2 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	copy(buf.Data[PageSize-4:], []byte("ABCDEFGH"))
	s, err := m.Slice(buf.GPA+PageSize-4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if string(s) != "ABCDEFGH" {
		t.Errorf("Slice = %q", s)
	}
	if _, err := m.Slice(buf.GPA, 3*PageSize); err == nil {
		t.Error("slice beyond allocation must fail")
	}
}

// Property: data written through a buffer is byte-identical when read back
// page by page through Translate (the backend's view).
func TestTranslateRoundTripProperty(t *testing.T) {
	m := New(8 << 20)
	f := func(data []byte) bool {
		if len(data) == 0 {
			data = []byte{1}
		}
		buf, err := m.Alloc(len(data))
		if err != nil {
			m = New(8 << 20)
			buf, err = m.Alloc(len(data))
			if err != nil {
				return false
			}
		}
		copy(buf.Data, data)
		var got []byte
		for _, gpa := range buf.Pages() {
			page, err := m.Translate(gpa)
			if err != nil {
				return false
			}
			got = append(got, page...)
		}
		return bytes.Equal(got[:len(data)], data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSize(t *testing.T) {
	m := New(1000) // rounds up to a page
	if m.Size() != PageSize {
		t.Errorf("Size = %d, want %d", m.Size(), PageSize)
	}
	empty := New(-1 << 20)
	if empty.Size() != 0 {
		t.Errorf("New(-1 MiB).Size = %d, want 0", empty.Size())
	}
	if _, err := empty.Alloc(1); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("Alloc in a negative-size memory: want ErrOutOfMemory, got %v", err)
	}
	// Rounding the largest size up to a page would overflow.
	if got, want := New(math.MaxInt64).Size(), int64(math.MaxInt64&^(PageSize-1)); got != want {
		t.Errorf("New(MaxInt64).Size = %d, want %d", got, want)
	}
}

// TestAllocZeroSentinel pins the zero-length allocation contract: a distinct
// sentinel GPA, no mapped page, and — crucially — no aliasing of the next
// allocation's first page (the historical bug: Alloc(0) returned the current
// bump pointer, which the following Alloc then claimed).
func TestAllocZeroSentinel(t *testing.T) {
	m := New(1 << 20)
	zero, err := m.Alloc(0)
	if err != nil {
		t.Fatal(err)
	}
	if zero.GPA != ZeroAllocGPA {
		t.Errorf("Alloc(0).GPA = %#x, want sentinel %#x", zero.GPA, ZeroAllocGPA)
	}
	if len(zero.Data) != 0 || zero.Pages() != nil {
		t.Errorf("Alloc(0) must carry no data and no pages, got %d bytes %v", len(zero.Data), zero.Pages())
	}
	next, err := m.Alloc(PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if next.GPA == zero.GPA {
		t.Errorf("zero-length allocation aliases the next allocation at %#x", next.GPA)
	}
	// The sentinel page must never translate or slice.
	if _, err := m.Translate(zero.GPA); !errors.Is(err, ErrBadAddress) && !errors.Is(err, ErrNotTranslated) {
		t.Errorf("Translate(sentinel): want a clean address error, got %v", err)
	}
	if _, err := m.Slice(zero.GPA, 1); err == nil {
		t.Error("Slice(sentinel, 1) must fail")
	}
}

// TestTranslateConcurrent hammers the lock-free read path from many
// goroutines while a writer keeps allocating and freeing — the exact
// interleaving the backend worker pool produces. Readers translate a seed
// allocation and the one the writer returned most recently, whose extent
// Alloc appended past the length earlier readers loaded. Around every
// fourth such allocation the writer frees one buffer below it (a hole) and
// one above it (a rewind the next allocation reuses), so readers search
// lists that Free published. Run under -race this is the proof the publication
// ordering is sound.
func TestTranslateConcurrent(t *testing.T) {
	m := New(64 << 20)
	seed, err := m.Alloc(8 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seed.Data {
		seed.Data[i] = byte(i)
	}
	var latest atomic.Pointer[Buffer]
	latest.Store(&seed)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, buf := range []*Buffer{&seed, latest.Load()} {
					for _, gpa := range buf.Pages() {
						page, err := m.Translate(gpa)
						if err != nil {
							t.Errorf("Translate(%#x): %v", gpa, err)
							return
						}
						if page[1] != 1 {
							t.Errorf("Translate(%#x) returned foreign bytes", gpa)
							return
						}
					}
				}
			}
		}()
	}
	for i := 0; i < 1000; i++ {
		frees := i%4 == 0
		var hole Buffer
		if frees {
			if hole, err = m.Alloc(PageSize); err != nil {
				t.Errorf("Alloc %d: %v", i, err)
				break
			}
		}
		buf, err := m.Alloc((i%3 + 1) * PageSize)
		if err != nil {
			t.Errorf("Alloc %d: %v", i, err)
			break
		}
		for off := 1; off < len(buf.Data); off += PageSize {
			buf.Data[off] = 1
		}
		latest.Store(&buf)
		if !frees {
			continue
		}
		top, err := m.Alloc(PageSize)
		if err != nil {
			t.Errorf("Alloc %d: %v", i, err)
			break
		}
		if err := m.Free(top.GPA); err != nil {
			t.Errorf("Free %d (top): %v", i, err)
		}
		if err := m.Free(hole.GPA); err != nil {
			t.Errorf("Free %d (hole): %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestFree pins Free's contract: freed pages fail with ErrNotTranslated, an
// unknown or already-freed GPA fails, freeing the highest allocation
// rewinds the bump pointer (so LIFO alloc/free reuses guest RAM) while a
// hole below it is not reused, and only allocations count as publications.
func TestFree(t *testing.T) {
	m := New(4 * PageSize)
	reg := obs.NewRegistry()
	m.SetObs(reg)
	a, err := m.Alloc(PageSize)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Alloc(2 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, gpa := range []uint64{a.GPA + 1, b.GPA + PageSize, 3 * PageSize, 1 << 40} {
		if err := m.Free(gpa); !errors.Is(err, ErrBadAddress) {
			t.Errorf("Free(%#x) of no allocation: want ErrBadAddress, got %v", gpa, err)
		}
	}
	if err := m.Free(ZeroAllocGPA); err != nil {
		t.Errorf("Free(sentinel): %v", err)
	}

	// LIFO: the whole of guest RAM is reusable, any number of times.
	for i := 0; i < 10; i++ {
		if err := m.Free(b.GPA); err != nil {
			t.Fatal(err)
		}
		if err := m.Free(b.GPA); !errors.Is(err, ErrBadAddress) {
			t.Errorf("double free: want ErrBadAddress, got %v", err)
		}
		for _, gpa := range []uint64{b.GPA, b.GPA + PageSize} {
			if _, err := m.Translate(gpa); !errors.Is(err, ErrNotTranslated) {
				t.Errorf("Translate(%#x) after free: want ErrNotTranslated, got %v", gpa, err)
			}
		}
		if _, err := m.Slice(b.GPA, 1); !errors.Is(err, ErrNotTranslated) {
			t.Errorf("Slice after free: want ErrNotTranslated, got %v", err)
		}
		if b, err = m.Alloc(3 * PageSize); err != nil {
			t.Fatalf("round %d: Alloc after LIFO free: %v", i, err)
		}
		if b.GPA != PageSize {
			t.Errorf("round %d: Alloc after LIFO free at %#x, want %#x", i, b.GPA, PageSize)
		}
		if err := m.Free(b.GPA); err != nil {
			t.Fatal(err)
		}
		if b, err = m.Alloc(2 * PageSize); err != nil {
			t.Fatal(err)
		}
	}

	// A hole below the highest allocation is not reused; freeing the
	// highest then rewinds past the hole too.
	if err := m.Free(a.GPA); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Translate(a.GPA); !errors.Is(err, ErrNotTranslated) {
		t.Errorf("Translate of a hole: want ErrNotTranslated, got %v", err)
	}
	if _, err := m.Alloc(2 * PageSize); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("Alloc into a hole: want ErrOutOfMemory, got %v", err)
	}
	if page, err := m.Translate(b.GPA); err != nil || &page[0] != &b.Data[0] {
		t.Errorf("Translate of the live allocation after a hole: %v", err)
	}
	if err := m.Free(b.GPA); err != nil {
		t.Fatal(err)
	}
	if c, err := m.Alloc(4 * PageSize); err != nil || c.GPA != 0 {
		t.Errorf("Alloc of all guest RAM after freeing everything: GPA %#x, %v", c.GPA, err)
	}
	if got, want := reg.Counter("hostmem.snapshot.swaps").Load(), int64(23); got != want {
		t.Errorf("hostmem.snapshot.swaps = %d, want %d (allocations only)", got, want)
	}
}

// TestSnapshotSwapCounter verifies hostmem.snapshot.swaps counts every
// published allocation (one per non-empty Alloc).
func TestSnapshotSwapCounter(t *testing.T) {
	m := New(1 << 20)
	reg := obs.NewRegistry()
	m.SetObs(reg)
	if _, err := m.Alloc(PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Alloc(0); err != nil { // sentinel: no snapshot swap
		t.Fatal(err)
	}
	if _, err := m.Alloc(3 * PageSize); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("hostmem.snapshot.swaps").Load(); got != 2 {
		t.Errorf("hostmem.snapshot.swaps = %d, want 2 (two allocs)", got)
	}
}

// TestLookupMatchesPageModel checks Translate and Slice against a per-page
// reference model: a map from every guest page to the Buffer that owns it,
// built from what Alloc returned and Free released. Random sequences mix
// zero-length, sub-page and multi-page allocations with frees of the
// highest live allocation (which rewinds the bump pointer the model
// predicts every allocation's GPA from) and of any other (a hole). The
// probes cover every page of guest RAM and two past it, unaligned
// addresses, the zero-length sentinel, the first byte past the bump
// pointer, and Slices of live and freed allocations that end exactly at an
// allocation's end or cross into the next one. Error classes must match,
// and every success must alias the owning Buffer's bytes.
func TestLookupMatchesPageModel(t *testing.T) {
	roundUp := func(n int) uint64 { return (uint64(n) + PageSize - 1) &^ (PageSize - 1) }
	sizes := []int{0, 1, PageSize - 1, PageSize, PageSize + 1, 3 * PageSize}
	for trial := 0; trial < 100; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		m := New(int64(rng.Intn(24*PageSize)) + 1)
		owner := map[uint64]Buffer{} // page GPA -> allocation covering it
		var bufs, live []Buffer
		var bump uint64
		for i := 0; i < trial%16; i++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				j := len(live) - 1 // highest: rewinds
				if rng.Intn(2) == 0 {
					j = rng.Intn(len(live))
				}
				buf := live[j]
				live = append(live[:j], live[j+1:]...)
				if err := m.Free(buf.GPA); err != nil {
					t.Fatalf("trial %d: Free(%#x): %v", trial, buf.GPA, err)
				}
				if err := m.Free(buf.GPA); !errors.Is(err, ErrBadAddress) {
					t.Errorf("trial %d: second Free(%#x): want ErrBadAddress, got %v", trial, buf.GPA, err)
				}
				for p := buf.GPA; p < buf.GPA+roundUp(len(buf.Data)); p += PageSize {
					delete(owner, p)
				}
				bump = 0
				if len(live) > 0 {
					top := live[len(live)-1]
					bump = top.GPA + roundUp(len(top.Data))
				}
				continue
			}
			n := rng.Intn(6 * PageSize)
			if rng.Intn(2) == 0 {
				n = sizes[rng.Intn(len(sizes))]
			}
			buf, err := m.Alloc(n)
			if errors.Is(err, ErrOutOfMemory) {
				if bump+roundUp(n) <= uint64(m.Size()) {
					t.Errorf("trial %d: Alloc(%d) at bump %#x: %v", trial, n, bump, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("trial %d: Alloc(%d): %v", trial, n, err)
			}
			if n == 0 {
				continue // the sentinel maps no page
			}
			if buf.GPA != bump {
				t.Errorf("trial %d: Alloc(%d) at %#x, want the bump pointer %#x", trial, n, buf.GPA, bump)
			}
			bufs = append(bufs, buf)
			live = append(live, buf)
			bump = buf.GPA + roundUp(n)
			for p := buf.GPA; p < bump; p += PageSize {
				owner[p] = buf
			}
		}

		check := func(op string, gpa uint64, n int, got []byte, err error) {
			t.Helper()
			var want error
			buf, mapped := owner[gpa&^(PageSize-1)]
			off := gpa - buf.GPA
			switch {
			case n < 0 || gpa >= uint64(m.Size()):
				want = ErrBadAddress
			case !mapped:
				want = ErrNotTranslated
			case off+uint64(n) > roundUp(len(buf.Data)):
				want = ErrBadAddress
			}
			switch {
			case want != nil:
				if !errors.Is(err, want) {
					t.Errorf("trial %d: %s(%#x, %d) error = %v, want %v", trial, op, gpa, n, err, want)
				}
			case err != nil:
				t.Errorf("trial %d: %s(%#x, %d): %v", trial, op, gpa, n, err)
			case len(got) != n:
				t.Errorf("trial %d: %s(%#x, %d) returned %d bytes", trial, op, gpa, n, len(got))
			case n > 0 && &got[0] != &buf.Data[:cap(buf.Data)][off]:
				t.Errorf("trial %d: %s(%#x, %d) does not alias the allocation at %#x", trial, op, gpa, n, buf.GPA)
			}
		}
		translate := func(gpa uint64) {
			t.Helper()
			got, err := m.Translate(gpa)
			if gpa%PageSize != 0 {
				if !errors.Is(err, ErrBadAddress) {
					t.Errorf("trial %d: Translate(%#x) unaligned: error = %v, want ErrBadAddress", trial, gpa, err)
				}
				return
			}
			check("Translate", gpa, PageSize, got, err)
		}
		slice := func(gpa uint64, n int) {
			t.Helper()
			got, err := m.Slice(gpa, n)
			check("Slice", gpa, n, got, err)
		}

		for gpa := uint64(0); gpa < uint64(m.Size())+2*PageSize; gpa += PageSize {
			translate(gpa)
			translate(gpa + 1)
			translate(gpa + PageSize - 1)
			slice(gpa, 0)
			slice(gpa+PageSize-1, 1)
			slice(gpa+PageSize-1, 2)
		}
		for _, gpa := range []uint64{ZeroAllocGPA, bump, 1 << 63, ^uint64(0)} {
			translate(gpa)
			slice(gpa, 1)
		}
		for _, buf := range bufs {
			end := int(roundUp(len(buf.Data)))
			slice(buf.GPA, end)
			slice(buf.GPA, end+1)
			slice(buf.GPA+1, end-1)
			slice(buf.GPA+1, end)
			slice(buf.GPA, -1)
		}
	}
}
