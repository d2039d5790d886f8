package backend

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/hostmem"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/virtio"
)

// bcastPayload allocates a patterned multi-page guest buffer.
func bcastPayload(t *testing.T, mem *hostmem.Memory, size int) hostmem.Buffer {
	t.Helper()
	buf, err := mem.Alloc(size)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf.Data {
		buf.Data[i] = byte(i*7 + 3)
	}
	return buf
}

// maskOf builds the DPU mask naming the listed DPUs.
func maskOf(dpus ...int) uint64 {
	var mask uint64
	for _, d := range dpus {
		mask |= 1 << uint(d)
	}
	return mask
}

// runBcastChain drives one broadcast chain [hdr mask, meta, (dpuMeta,
// pageBuf) × rows, status] at the backend through the wire path. Every row
// carries the payload's pages; a well-formed broadcast has exactly one.
func runBcastChain(t *testing.T, b *Backend, mem *hostmem.Memory, payload hostmem.Buffer, size int, mramOff int64, mask uint64, rows int) error {
	t.Helper()
	meta, err := mem.Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := virtio.PutU64s(meta.Data, []uint64{uint64(rows)}); err != nil {
		t.Fatal(err)
	}
	payload.Data = payload.Data[:size]
	pages := payload.Pages()
	descs := []virtio.Desc{{GPA: meta.GPA, Len: 8}}
	for i := 0; i < rows; i++ {
		dm, err := mem.Alloc(8 * virtio.DPUMetaWords)
		if err != nil {
			t.Fatal(err)
		}
		if err := virtio.PutU64s(dm.Data, []uint64{0, uint64(size), uint64(mramOff),
			uint64(len(pages)), payload.GPA % hostmem.PageSize}); err != nil {
			t.Fatal(err)
		}
		pm, err := mem.Alloc(8 * len(pages))
		if err != nil {
			t.Fatal(err)
		}
		if err := virtio.PutU64s(pm.Data, pages); err != nil {
			t.Fatal(err)
		}
		descs = append(descs,
			virtio.Desc{GPA: dm.GPA, Len: uint32(8 * virtio.DPUMetaWords)},
			virtio.Desc{GPA: pm.GPA, Len: uint32(8 * len(pages))})
	}
	chain := buildChain(t, mem, virtio.Request{Op: virtio.OpWriteRankBcast, DPUMask: mask, Length: uint64(size)}, descs)
	return handle(b, chain, simtime.New())
}

// TestBcastReplicatesPayload checks the happy path: one payload lands
// bit-exact on every DPU the mask names, untargeted DPUs stay untouched, and
// the fan-out counter records every replica.
func TestBcastReplicatesPayload(t *testing.T) {
	b, mem := testBackend(t, true)
	reg := obs.NewRegistry()
	b.SetObs(reg, nil)
	size := 2*hostmem.PageSize + 96
	payload := bcastPayload(t, mem, size)
	dpus := []int{0, 2, 3}
	if err := runBcastChain(t, b, mem, payload, size, 64, maskOf(dpus...), 1); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, size)
	for _, d := range dpus {
		if err := b.rank.ReadDPU(d, 64, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload.Data[:size]) {
			t.Errorf("dpu %d: replica differs from payload", d)
		}
	}
	if err := b.rank.ReadDPU(1, 64, got); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 0 {
			t.Errorf("untargeted dpu 1 modified at %d", i)
			break
		}
	}
	if fanout := b.cBcastFanout.Load(); fanout != int64(len(dpus)) {
		t.Errorf("backend.bcast.fanout=%d, want %d", fanout, len(dpus))
	}
}

// TestBcastMaskNamesAll64DPUs checks the widest mask: on a 64-DPU rank
// every bit, bit 63 included, names a valid target.
func TestBcastMaskNamesAll64DPUs(t *testing.T) {
	b, mem := testBackendDPUs(t, 64, true)
	size := hostmem.PageSize + 40
	payload := bcastPayload(t, mem, size)
	if err := runBcastChain(t, b, mem, payload, size, 8, ^uint64(0), 1); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, size)
	for d := 0; d < 64; d++ {
		if err := b.rank.ReadDPU(d, 8, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload.Data[:size]) {
			t.Fatalf("dpu %d: replica differs from payload", d)
		}
	}
}

// TestBcastRejectsHostileFanout checks that every malformed broadcast — a
// mask naming no DPU, a mask naming a DPU past the 4-DPU test rank, bit 63,
// and a chain smuggling a second payload row — fails with the decode
// sentinel before any byte moves: never a panic, an out-of-bounds write or
// a partial replication.
func TestBcastRejectsHostileFanout(t *testing.T) {
	size := hostmem.PageSize
	cases := []struct {
		name string
		mask uint64
		rows int
	}{
		{"empty fan-out", 0, 1},
		{"out-of-range id", maskOf(1, 4), 1},
		{"bit 63", maskOf(0, 63), 1},
		{"two-row chain", maskOf(0, 1), 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, mem := testBackend(t, true)
			payload := bcastPayload(t, mem, size)
			err := runBcastChain(t, b, mem, payload, size, 0, tc.mask, tc.rows)
			if !errors.Is(err, ErrBadDescriptor) {
				t.Fatalf("want ErrBadDescriptor, got %v", err)
			}
			got := make([]byte, size)
			for d := 0; d < b.rank.NumDPUs(); d++ {
				if err := b.rank.ReadDPU(d, 0, got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, make([]byte, size)) {
					t.Errorf("dpu %d written by a rejected broadcast", d)
				}
			}
		})
	}
}

// TestBcastFaultOrderDeterministic checks the chaos contract: fault hooks
// are consulted in a sequential prologue — the mask's DPUs in ascending
// order first, then the payload's page walk — so a seeded countdown fuse
// fires on the same DPU no matter how many host workers the write uses.
func TestBcastFaultOrderDeterministic(t *testing.T) {
	size := hostmem.PageSize + 32
	mask := maskOf(3, 1, 2)
	for _, workers := range []int{1, 4} {
		setProcs(t, workers)
		b, mem := testBackend(t, true)
		payload := bcastPayload(t, mem, size)
		var consulted []int
		b.SetFault(&FaultPolicy{FailCopy: func(dpu int) bool {
			consulted = append(consulted, dpu)
			return len(consulted) == 2
		}})
		err := runBcastChain(t, b, mem, payload, size, 0, mask, 1)
		if err == nil || !strings.Contains(err.Error(), "dpu 2") {
			t.Fatalf("workers=%d: countdown fuse must fail on dpu 2 (ascending order), got %v", workers, err)
		}
		if len(consulted) != 2 || consulted[0] != 1 || consulted[1] != 2 {
			t.Errorf("workers=%d: consultation order %v, want [1 2]", workers, consulted)
		}
	}
	// Translate fuses fire after every copy fuse passed, on the payload's
	// pages in walk order — once, not once per target.
	for _, workers := range []int{1, 4} {
		setProcs(t, workers)
		b, mem := testBackend(t, true)
		payload := bcastPayload(t, mem, size)
		pages := 0
		b.SetFault(&FaultPolicy{FailTranslate: func(gpa uint64) bool {
			pages++
			return pages == 2
		}})
		err := runBcastChain(t, b, mem, payload, size, 0, mask, 1)
		if err == nil || !strings.Contains(err.Error(), "translate fault") {
			t.Fatalf("workers=%d: translate fuse must fire, got %v", workers, err)
		}
		if pages != 2 {
			t.Errorf("workers=%d: translate consulted %d times, want 2 (one walk, not per target)", workers, pages)
		}
	}
}
