package pim

import (
	"slices"
	"unsafe"
)

// Typed WRAM. A UPMEM DPU program declares its WRAM buffers as uint32_t or
// uint64_t arrays and DMAs them with mram_read and mram_write; a kernel
// here does the same with []uint32 and []uint64 buffers. The typed methods
// are thin wrappers over the byte ones: a zero-copy view of the words as
// bytes, and a split of long transfers into DMAs MRAMRead and MRAMWrite
// accept. This is the only file of the module that imports unsafe.

// bigEndian reports whether the host stores a word's most significant byte
// first. MRAM holds words little-endian, as the DPU does, so on such a host
// a typed read swaps each word's bytes after its DMAs and a typed write
// swaps them before its DMAs.
var bigEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 0
}()

// wram returns n zeroed bytes of WRAM, backed by []uint64 so that they are
// 8-byte aligned like a mem_alloc block and any word view of them is
// aligned.
func wram(n int) []byte { return bytesOf(make([]uint64, (n+7)/8))[:n:n] }

// bytesOf is the byte view of s: the same memory, in host byte order.
func bytesOf[T uint32 | uint64](s []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(T(0))))
}

// wordsOf is the word view of b, which wram allocated.
func wordsOf[T uint32 | uint64](b []byte) []T {
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/int(unsafe.Sizeof(T(0))))
}

// swapWords reverses the byte order of every size-byte word of b.
func swapWords(b []byte, size int) {
	for i := 0; i < len(b); i += size {
		slices.Reverse(b[i : i+size])
	}
}

// readWords fills b, the byte view of size-byte words, from MRAM offset off
// with DMAs of at most MaxDMABytes, issued in order from the start of b.
func (c *Ctx) readWords(off int64, b []byte, size int) error {
	for i := 0; i < len(b); i += MaxDMABytes {
		if err := c.MRAMRead(off+int64(i), b[i:min(i+MaxDMABytes, len(b))]); err != nil {
			return err
		}
	}
	if bigEndian {
		swapWords(b, size)
	}
	return nil
}

// writeWords stores b, the byte view of size-byte words, at MRAM offset off
// with DMAs split as readWords splits them. b is unchanged when it returns.
func (c *Ctx) writeWords(b []byte, off int64, size int) error {
	if bigEndian {
		swapWords(b, size)
		defer swapWords(b, size)
	}
	for i := 0; i < len(b); i += MaxDMABytes {
		if err := c.MRAMWrite(b[i:min(i+MaxDMABytes, len(b))], off+int64(i)); err != nil {
			return err
		}
	}
	return nil
}

// AllocU32 reserves n uint32 words of WRAM: Alloc(4*n) as words.
func (c *Ctx) AllocU32(n int) ([]uint32, error) {
	b, err := c.Alloc(4 * n)
	return wordsOf[uint32](b), err
}

// SharedU32 is Shared(name, 4*n) as uint32 words.
func (c *Ctx) SharedU32(name string, n int) ([]uint32, error) {
	b, err := c.Shared(name, 4*n)
	return wordsOf[uint32](b), err
}

// SharedU64 is Shared(name, 8*n) as uint64 words.
func (c *Ctx) SharedU64(name string, n int) ([]uint64, error) {
	b, err := c.Shared(name, 8*n)
	return wordsOf[uint64](b), err
}

// ReadU32 reads len(dst) little-endian words from MRAM offset off. A read
// longer than 2048 bytes is issued as consecutive MRAMRead DMAs of 2048
// bytes from off, the last one shorter; an error stops it at the failing
// DMA.
func (c *Ctx) ReadU32(off int64, dst []uint32) error { return c.readWords(off, bytesOf(dst), 4) }

// ReadU64 is ReadU32 for uint64 words.
func (c *Ctx) ReadU64(off int64, dst []uint64) error { return c.readWords(off, bytesOf(dst), 8) }

// WriteU32 writes src to MRAM offset off as little-endian words, split
// into MRAMWrite DMAs as ReadU32 splits its reads.
func (c *Ctx) WriteU32(src []uint32, off int64) error { return c.writeWords(bytesOf(src), off, 4) }

// WriteU64 is WriteU32 for uint64 words.
func (c *Ctx) WriteU64(src []uint64, off int64) error { return c.writeWords(bytesOf(src), off, 8) }
