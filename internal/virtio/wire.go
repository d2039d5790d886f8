package virtio

import (
	"encoding/binary"
	"fmt"
)

// Request is the decoded request header carried in the first descriptor of
// every transferq chain.
type Request struct {
	// Op selects the device operation.
	Op Op
	// DPU is the target DPU for single-DPU operations (symbol access).
	DPU uint32
	// DPUMask selects DPUs for OpLaunch and names the targets of an
	// OpWriteRankBcast (bit i = DPU i; a rank has at most 64 DPUs).
	DPUMask uint64
	// Offset is the MRAM or symbol byte offset.
	Offset uint64
	// Length is the per-DPU transfer length for uniform operations.
	Length uint64
	// Symbol is the MRAM heap or host-symbol name, or the binary name for
	// OpLoadProgram.
	Symbol string
}

// headerFixed is the size of the fixed part of an encoded header.
const headerFixed = 4 + 4 + 8 + 8 + 8 + 4

// EncodedSize reports the byte size of the encoded header.
func (r *Request) EncodedSize() int { return headerFixed + len(r.Symbol) }

// Encode serializes the header into buf, which must be at least
// EncodedSize() bytes. It returns the bytes written.
func (r *Request) Encode(buf []byte) (int, error) {
	n := r.EncodedSize()
	if len(buf) < n {
		return 0, fmt.Errorf("virtio: header buffer too small: %d < %d", len(buf), n)
	}
	le := binary.LittleEndian
	le.PutUint32(buf[0:], uint32(r.Op))
	le.PutUint32(buf[4:], r.DPU)
	le.PutUint64(buf[8:], r.DPUMask)
	le.PutUint64(buf[16:], r.Offset)
	le.PutUint64(buf[24:], r.Length)
	le.PutUint32(buf[32:], uint32(len(r.Symbol)))
	copy(buf[headerFixed:], r.Symbol)
	return n, nil
}

// DecodeRequest parses an encoded header.
func DecodeRequest(buf []byte) (Request, error) {
	if len(buf) < headerFixed {
		return Request{}, fmt.Errorf("virtio: truncated header: %d bytes", len(buf))
	}
	le := binary.LittleEndian
	r := Request{
		Op:      Op(le.Uint32(buf[0:])),
		DPU:     le.Uint32(buf[4:]),
		DPUMask: le.Uint64(buf[8:]),
		Offset:  le.Uint64(buf[16:]),
		Length:  le.Uint64(buf[24:]),
	}
	symLen := int(le.Uint32(buf[32:]))
	if headerFixed+symLen > len(buf) {
		return Request{}, fmt.Errorf("virtio: symbol overruns header: %d + %d > %d", headerFixed, symLen, len(buf))
	}
	r.Symbol = string(buf[headerFixed : headerFixed+symLen])
	return r, nil
}

// Matrix metadata wire layout (Fig. 6/7). All values are u64 little endian:
//
//	matrix metadata buffer : [ nEntries ]
//	per-DPU metadata buffer: [ dpuIndex, size, mramOffset, nbPages, firstPageOffset ]
//	per-DPU page buffer    : [ gpa0, gpa1, ... ]
//
// firstPageOffset locates the data start within the first page: guest
// buffers handed to dpu_prepare_xfer are arbitrary userspace pointers, not
// necessarily page aligned.
const (
	// MatrixMetaWords is the u64 count of the matrix metadata buffer.
	MatrixMetaWords = 1
	// DPUMetaWords is the u64 count of a per-DPU metadata buffer.
	DPUMetaWords = 5
)

// BroadcastDPU in Request.DPU addresses every DPU of the rank at once (the
// SDK's dpu_broadcast_to); the backend applies the symbol write to all DPUs.
const BroadcastDPU = ^uint32(0)

// BatchSentinel in Request.Offset marks an OpWriteRank chain whose entries
// carry packed batch records ([mramOff u64, len u64, data...] repeated)
// instead of raw MRAM data; see the frontend's request batching.
const BatchSentinel = ^uint64(0)

// PutU64s encodes a u64 slice into bytes (the page/metadata buffers are
// arrays of 64-bit unsigned integers per the spec).
func PutU64s(dst []byte, vals []uint64) error {
	if len(dst) < 8*len(vals) {
		return fmt.Errorf("virtio: u64 buffer too small: %d < %d", len(dst), 8*len(vals))
	}
	for i, v := range vals {
		binary.LittleEndian.PutUint64(dst[8*i:], v)
	}
	return nil
}

// GetU64 reads the i-th u64 from an encoded buffer.
func GetU64(src []byte, i int) (uint64, error) {
	if 8*i+8 > len(src) {
		return 0, fmt.Errorf("virtio: u64 index %d outside buffer of %d bytes", i, len(src))
	}
	return binary.LittleEndian.Uint64(src[8*i:]), nil
}

// ConfigResponseSize is the byte size of an encoded DeviceConfig response.
const ConfigResponseSize = 4 + 4 + 8 + 4 + 4

// EncodeConfig serializes a DeviceConfig into buf.
func EncodeConfig(cfg DeviceConfig, buf []byte) error {
	if len(buf) < ConfigResponseSize {
		return fmt.Errorf("virtio: config buffer too small: %d", len(buf))
	}
	le := binary.LittleEndian
	le.PutUint32(buf[0:], cfg.NumDPUs)
	le.PutUint32(buf[4:], cfg.FrequencyMHz)
	le.PutUint64(buf[8:], cfg.MRAMBytes)
	le.PutUint32(buf[16:], cfg.ClockDivision)
	le.PutUint32(buf[20:], cfg.NumCIs)
	return nil
}

// DecodeConfig parses an encoded DeviceConfig.
func DecodeConfig(buf []byte) (DeviceConfig, error) {
	if len(buf) < ConfigResponseSize {
		return DeviceConfig{}, fmt.Errorf("virtio: truncated config: %d bytes", len(buf))
	}
	le := binary.LittleEndian
	return DeviceConfig{
		NumDPUs:       le.Uint32(buf[0:]),
		FrequencyMHz:  le.Uint32(buf[4:]),
		MRAMBytes:     le.Uint64(buf[8:]),
		ClockDivision: le.Uint32(buf[16:]),
		NumCIs:        le.Uint32(buf[20:]),
	}, nil
}
