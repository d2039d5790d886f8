package backend

import (
	"bytes"
	"encoding/binary"
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

// runBcastChain drives one broadcast chain [hdr, meta, dpuMeta, pageBuf,
// fanout, status] at the backend through the wire path. fan is the raw
// fan-out descriptor bytes, so tests can encode hostile variants directly.
func runBcastChain(t *testing.T, b *Backend, mem *hostmem.Memory, payload hostmem.Buffer, size int, mramOff int64, fan []byte) error {
	t.Helper()
	meta, err := mem.Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := virtio.PutU64s(meta.Data, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	payload.Data = payload.Data[:size]
	pages := payload.Pages()
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
	fanBuf, err := mem.Alloc(len(fan))
	if err != nil {
		t.Fatal(err)
	}
	copy(fanBuf.Data, fan)
	chain := buildChain(t, mem, virtio.Request{Op: virtio.OpWriteRankBcast, Length: uint64(size)}, []virtio.Desc{
		{GPA: meta.GPA, Len: 8},
		{GPA: dm.GPA, Len: uint32(8 * virtio.DPUMetaWords)},
		{GPA: pm.GPA, Len: uint32(8 * len(pages))},
		{GPA: fanBuf.GPA, Len: uint32(len(fan))},
	})
	return handle(b, chain, simtime.New())
}

func encodeFanout(t *testing.T, ids []uint32) []byte {
	t.Helper()
	fan := make([]byte, virtio.FanoutSize(len(ids)))
	if _, err := virtio.EncodeFanout(fan, ids); err != nil {
		t.Fatal(err)
	}
	return fan
}

// TestBcastReplicatesPayload checks the happy path: one payload lands
// bit-exact on every fan-out target, untargeted DPUs stay untouched, and the
// fan-out counter records every replica.
func TestBcastReplicatesPayload(t *testing.T) {
	b, mem := testBackend(t, true)
	reg := obs.NewRegistry()
	b.SetObs(reg, nil)
	size := 2*hostmem.PageSize + 96
	payload := bcastPayload(t, mem, size)
	ids := []uint32{0, 2, 3}
	if err := runBcastChain(t, b, mem, payload, size, 64, encodeFanout(t, ids)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, size)
	for _, id := range ids {
		if err := b.rank.ReadDPU(int(id), 64, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload.Data[:size]) {
			t.Errorf("dpu %d: replica differs from payload", id)
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
	if fanout := b.cBcastFanout.Load(); fanout != int64(len(ids)) {
		t.Errorf("backend.bcast.fanout=%d, want %d", fanout, len(ids))
	}
}

// TestBcastRejectsHostileFanout checks that every malformed fan-out variant
// fails with the decode sentinel — never a panic, an out-of-bounds write or
// a partial replication reported as success.
func TestBcastRejectsHostileFanout(t *testing.T) {
	size := hostmem.PageSize
	cases := []struct {
		name string
		fan  func(t *testing.T) []byte
	}{
		{"out-of-range id", func(t *testing.T) []byte {
			// The test rank has 4 DPUs; id 4 is past the geometry.
			return encodeFanout(t, []uint32{1, 4})
		}},
		{"duplicate id", func(t *testing.T) []byte {
			return encodeFanout(t, []uint32{2, 1, 2})
		}},
		{"empty fan-out", func(t *testing.T) []byte {
			return encodeFanout(t, nil)
		}},
		{"count overruns buffer", func(t *testing.T) []byte {
			fan := encodeFanout(t, []uint32{0})
			binary.LittleEndian.PutUint32(fan[0:], 3)
			return fan
		}},
		{"truncated header", func(t *testing.T) []byte {
			return []byte{1, 0}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, mem := testBackend(t, true)
			payload := bcastPayload(t, mem, size)
			err := runBcastChain(t, b, mem, payload, size, 0, tc.fan(t))
			if !errors.Is(err, ErrBadDescriptor) {
				t.Fatalf("want ErrBadDescriptor, got %v", err)
			}
		})
	}
}

// TestBcastRejectsMultiRowChain checks that a broadcast chain smuggling more
// than one payload row is rejected: the wire contract is exactly one row.
func TestBcastRejectsMultiRowChain(t *testing.T) {
	b, mem := testBackend(t, true)
	meta, err := mem.Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := virtio.PutU64s(meta.Data, []uint64{2}); err != nil {
		t.Fatal(err)
	}
	payload := bcastPayload(t, mem, hostmem.PageSize)
	pages := payload.Pages()
	mkRow := func() []virtio.Desc {
		dm, err := mem.Alloc(8 * virtio.DPUMetaWords)
		if err != nil {
			t.Fatal(err)
		}
		if err := virtio.PutU64s(dm.Data, []uint64{0, uint64(hostmem.PageSize), 0, 1, 0}); err != nil {
			t.Fatal(err)
		}
		pm, err := mem.Alloc(8)
		if err != nil {
			t.Fatal(err)
		}
		if err := virtio.PutU64s(pm.Data, pages[:1]); err != nil {
			t.Fatal(err)
		}
		return []virtio.Desc{
			{GPA: dm.GPA, Len: uint32(8 * virtio.DPUMetaWords)},
			{GPA: pm.GPA, Len: 8},
		}
	}
	fan := encodeFanout(t, []uint32{0, 1})
	fanBuf, err := mem.Alloc(len(fan))
	if err != nil {
		t.Fatal(err)
	}
	copy(fanBuf.Data, fan)
	mid := []virtio.Desc{{GPA: meta.GPA, Len: 8}}
	mid = append(mid, mkRow()...)
	mid = append(mid, mkRow()...)
	mid = append(mid, virtio.Desc{GPA: fanBuf.GPA, Len: uint32(len(fan))})
	chain := buildChain(t, mem, virtio.Request{Op: virtio.OpWriteRankBcast}, mid)
	if err := handle(b, chain, simtime.New()); !errors.Is(err, ErrBadDescriptor) {
		t.Fatalf("want ErrBadDescriptor for 2-row broadcast, got %v", err)
	}
}

// TestBcastFaultOrderDeterministic checks the chaos contract: fault hooks
// are consulted in a sequential prologue — fan-out order first, then the
// payload's page walk — so a seeded countdown fuse fires on the same DPU no
// matter how many host workers the replication shards across.
func TestBcastFaultOrderDeterministic(t *testing.T) {
	size := hostmem.PageSize + 32
	ids := []uint32{3, 1, 2}
	for _, workers := range []int{1, 4} {
		b, mem := testBackend(t, true)
		b.SetHostWorkers(workers)
		payload := bcastPayload(t, mem, size)
		var consulted []int
		b.SetFault(&FaultPolicy{FailCopy: func(dpu int) bool {
			consulted = append(consulted, dpu)
			return len(consulted) == 2
		}})
		err := runBcastChain(t, b, mem, payload, size, 0, encodeFanout(t, ids))
		if err == nil || !strings.Contains(err.Error(), "dpu 1") {
			t.Fatalf("workers=%d: countdown fuse must fail on dpu 1 (fan-out order), got %v", workers, err)
		}
		if len(consulted) != 2 || consulted[0] != 3 || consulted[1] != 1 {
			t.Errorf("workers=%d: consultation order %v, want [3 1]", workers, consulted)
		}
	}
	// Translate fuses fire after every copy fuse passed, on the payload's
	// pages in walk order — once, not once per target.
	for _, workers := range []int{1, 4} {
		b, mem := testBackend(t, true)
		b.SetHostWorkers(workers)
		payload := bcastPayload(t, mem, size)
		pages := 0
		b.SetFault(&FaultPolicy{FailTranslate: func(gpa uint64) bool {
			pages++
			return pages == 2
		}})
		err := runBcastChain(t, b, mem, payload, size, 0, encodeFanout(t, ids))
		if err == nil || !strings.Contains(err.Error(), "translate fault") {
			t.Fatalf("workers=%d: translate fuse must fire, got %v", workers, err)
		}
		if pages != 2 {
			t.Errorf("workers=%d: translate consulted %d times, want 2 (one walk, not per target)", workers, pages)
		}
	}
}
