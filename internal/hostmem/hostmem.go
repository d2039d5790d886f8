// Package hostmem models a VM's guest physical memory and the guest
// physical address (GPA) to host virtual address (HVA) mapping that the vPIM
// backend uses for zero-copy access to guest pages.
//
// Guest RAM is a flat GPA space that a bump allocator hands out in
// page-aligned extents, each backed by its own host buffer. The extents are
// kept as one list sorted by GPA, so a "128 GB" VM costs only what its
// applications actually allocate: nothing is sized by capacity. Translation
// is a binary search of that list per page, which is the work the backend
// parallelizes across translation threads (Section 4.2). Zero-copy is
// structural: the backend obtains slices aliasing guest memory rather than
// copies.
//
// The read path (Translate, Slice) is lock-free: Alloc appends an extent
// under the Memory mutex and then atomically publishes the longer list, and
// Free publishes a fresh list without the freed extent. A published list
// never changes, so readers search whichever list they load without
// contending on the mutex. Freeing the highest allocation moves the bump
// pointer back to the end of the new highest one, so memory freed in LIFO
// order, as an application frees its per-run buffers, is reused; a hole
// below the highest allocation is not.
package hostmem

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// PageSize is the guest page size (4 KB, as in the paper's transfer-matrix
// arithmetic: 64 MB / 4 KB = 16384 pages per DPU).
const PageSize = 4096

// ZeroAllocGPA is the page-aligned sentinel address returned for zero-length
// allocations. It lies outside any guest RAM (the top page of the 64-bit GPA
// space), is never mapped, and therefore fails Translate/Slice with
// ErrBadAddress instead of silently aliasing the next allocation's first
// page.
const ZeroAllocGPA = ^uint64(0) &^ (PageSize - 1)

// Errors reported by the memory model.
var (
	ErrOutOfMemory   = errors.New("hostmem: guest memory exhausted")
	ErrBadAddress    = errors.New("hostmem: address outside guest RAM")
	ErrNotTranslated = errors.New("hostmem: no GPA->HVA mapping for page")
)

// extent is one allocation: the GPA of its first byte and its page-aligned
// backing bytes.
type extent struct {
	gpa  uint64
	data []byte
}

// Memory is one VM's guest RAM plus its GPA->HVA mapping.
type Memory struct {
	// mu serializes Alloc and Free; readers never take it.
	mu       sync.Mutex
	capacity int64
	// next is the bump pointer: the end of the highest extent, or 0.
	next int64
	// extents is sorted by GPA; the gaps between extents are freed
	// allocations. Alloc writes only past the published length, and Free
	// publishes a new backing array, so readers may search any published
	// list while it changes.
	extents atomic.Pointer[[]extent]

	// cSwaps counts published allocations (nil-safe until SetObs).
	cSwaps *obs.Counter
}

// New creates guest RAM of size bytes, rounded up to whole pages (down where
// rounding up would overflow); a negative size gives a memory with no room.
// Backing memory is committed per allocation, mirroring how a freshly booted
// microVM's RAM is populated on demand.
func New(size int64) *Memory {
	size = min(max(size, 0), math.MaxInt64&^(PageSize-1))
	m := &Memory{capacity: (size + PageSize - 1) &^ (PageSize - 1)}
	m.extents.Store(new([]extent))
	return m
}

// SetObs registers the memory's publication counter
// ("hostmem.snapshot.swaps") in reg: one increment per allocation published
// to the lock-free readers.
func (m *Memory) SetObs(reg *obs.Registry) {
	m.cSwaps = reg.Counter("hostmem.snapshot.swaps")
}

// Size reports the guest RAM capacity in bytes.
func (m *Memory) Size() int64 { return m.capacity }

// Buffer is a guest userspace allocation: the guest-visible bytes plus the
// GPA where they live. Data aliases guest RAM, so writes through it are
// visible to the backend (and vice versa) — that is the zero-copy property.
type Buffer struct {
	GPA  uint64
	Data []byte
}

// Pages lists the GPAs of the (page-aligned) pages backing the buffer.
func (b Buffer) Pages() []uint64 {
	if len(b.Data) == 0 {
		return nil
	}
	first := b.GPA / PageSize
	last := (b.GPA + uint64(len(b.Data)) - 1) / PageSize
	pages := make([]uint64, 0, last-first+1)
	for p := first; p <= last; p++ {
		pages = append(pages, p*PageSize)
	}
	return pages
}

// Alloc reserves n bytes of page-aligned guest memory. A zero-length request
// returns an empty Buffer at ZeroAllocGPA: no page is mapped for it, so any
// attempt to translate or slice through it fails cleanly instead of reading
// the neighbor allocation that historically shared its GPA.
func (m *Memory) Alloc(n int) (Buffer, error) {
	if n < 0 {
		return Buffer{}, fmt.Errorf("hostmem: negative allocation %d", n)
	}
	if n == 0 {
		return Buffer{GPA: ZeroAllocGPA}, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// The free space is page-aligned, so n fits exactly when its rounded
	// size does; comparing first keeps the rounding from overflowing.
	if free := m.capacity - m.next; int64(n) > free {
		return Buffer{}, fmt.Errorf("%w: want %d, %d free", ErrOutOfMemory, n, free)
	}
	e := extent{gpa: uint64(m.next), data: make([]byte, (int64(n)+PageSize-1)&^(PageSize-1))}
	m.next += int64(len(e.data))
	extents := append(*m.extents.Load(), e)
	m.extents.Store(&extents)
	m.cSwaps.Inc()
	return Buffer{GPA: e.gpa, Data: e.data[:n:len(e.data)]}, nil
}

// Free releases the allocation whose first byte is at gpa (a Buffer's GPA
// as Alloc returned it); its pages then fail Translate and Slice with
// ErrNotTranslated. Freeing the zero-length sentinel does nothing. Any other
// GPA that does not start a live allocation, one already freed included,
// fails with ErrBadAddress. Freeing the highest allocation moves the bump
// pointer back to the end of the new highest one.
func (m *Memory) Free(gpa uint64) error {
	if gpa == ZeroAllocGPA {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	old := *m.extents.Load()
	i, ok := slices.BinarySearchFunc(old, gpa, func(e extent, gpa uint64) int { return cmp.Compare(e.gpa, gpa) })
	if !ok {
		return fmt.Errorf("%w: free of GPA %#x: no allocation starts there", ErrBadAddress, gpa)
	}
	// A fresh backing array: readers may still be searching old.
	extents := slices.Concat(old[:i], old[i+1:])
	if i == len(old)-1 { // the highest extent: rewind the bump pointer
		m.next = 0
		if i > 0 {
			top := extents[i-1]
			m.next = int64(top.gpa) + int64(len(top.data))
		}
	}
	m.extents.Store(&extents)
	return nil
}

// Translate maps one guest physical page address to the host slice backing
// it: the GPA->HVA lookup the backend performs per page of a transfer
// matrix. The GPA must be page-aligned. Translate is lock-free and safe to
// call from many backend workers concurrently.
func (m *Memory) Translate(gpa uint64) ([]byte, error) {
	if gpa%PageSize != 0 {
		return nil, fmt.Errorf("%w: GPA %#x not page aligned", ErrBadAddress, gpa)
	}
	return m.Slice(gpa, PageSize)
}

// Slice returns the guest bytes [gpa, gpa+n) for direct (already
// translated) access. Used by the frontend, which lives in the guest and
// addresses its own RAM without translation; the range must lie within one
// allocation. Like Translate, Slice is lock-free.
func (m *Memory) Slice(gpa uint64, n int) ([]byte, error) {
	if n < 0 || gpa >= uint64(m.capacity) {
		return nil, fmt.Errorf("%w: GPA %#x len %d", ErrBadAddress, gpa, n)
	}
	extents := *m.extents.Load()
	i := sort.Search(len(extents), func(i int) bool { return extents[i].gpa > gpa }) - 1
	if i < 0 || gpa-extents[i].gpa >= uint64(len(extents[i].data)) {
		return nil, fmt.Errorf("%w: GPA %#x", ErrNotTranslated, gpa)
	}
	e := extents[i]
	off := gpa - e.gpa
	if uint64(n) > uint64(len(e.data))-off {
		return nil, fmt.Errorf("%w: GPA %#x len %d crosses allocation", ErrBadAddress, gpa, n)
	}
	return e.data[off : off+uint64(n) : off+uint64(n)], nil
}
