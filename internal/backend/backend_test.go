package backend

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/hostmem"
	"repro/internal/manager"
	"repro/internal/pim"
	"repro/internal/simtime"
	"repro/internal/virtio"
)

// testBackend builds a backend with guest memory and (optionally) an
// attached 4-DPU rank, for driving raw chains at the wire level.
func testBackend(t *testing.T, attach bool) (*Backend, *hostmem.Memory) {
	t.Helper()
	return testBackendDPUs(t, 4, attach)
}

// testBackendDPUs is testBackend over a rank of the given DPU count.
func testBackendDPUs(t *testing.T, dpus int, attach bool) (*Backend, *hostmem.Memory) {
	t.Helper()
	mach, err := pim.NewMachine(pim.MachineConfig{
		Ranks: 1,
		Rank:  pim.RankConfig{DPUs: dpus, MRAMBytes: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr := manager.New(mach, manager.Options{})
	mem := hostmem.New(64 << 20)
	b := New("t/vupmem0", mach, mgr, mem, cost.EngineC, NewEventLoop(false, mach.Model()))
	if attach {
		rank, _, err := mgr.Alloc(b.id)
		if err != nil {
			t.Fatal(err)
		}
		b.rank = rank
	}
	return b, mem
}

// buildChain encodes a header and allocates a status descriptor.
func buildChain(t *testing.T, mem *hostmem.Memory, req virtio.Request, mid []virtio.Desc) *virtio.Chain {
	t.Helper()
	hdr, err := mem.Alloc(req.EncodedSize())
	if err != nil {
		t.Fatal(err)
	}
	n, err := req.Encode(hdr.Data)
	if err != nil {
		t.Fatal(err)
	}
	status, err := mem.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	descs := []virtio.Desc{{GPA: hdr.GPA, Len: uint32(n)}}
	descs = append(descs, mid...)
	descs = append(descs, virtio.Desc{GPA: status.GPA, Len: 64, Writable: true})
	return &virtio.Chain{Descs: descs}
}

// handle drives one chain through the transferq handler: the window of one
// chain a synchronous request arrives as.
func handle(b *Backend, chain *virtio.Chain, tl *simtime.Timeline) error {
	return b.HandleWindow([]*virtio.Chain{chain}, tl)[0]
}

// handleControl drives one chain through the controlq handler.
func handleControl(b *Backend, chain *virtio.Chain, tl *simtime.Timeline) error {
	return b.HandleControl([]*virtio.Chain{chain}, tl)[0]
}

func TestHandleWindowNoRank(t *testing.T) {
	b, mem := testBackend(t, false)
	chain := buildChain(t, mem, virtio.Request{Op: virtio.OpCI, Offset: 1}, nil)
	err := handle(b, chain, simtime.New())
	if !errors.Is(err, ErrNoRank) {
		t.Errorf("want ErrNoRank, got %v", err)
	}
}

func TestHandleWindowShortChain(t *testing.T) {
	b, _ := testBackend(t, true)
	err := handle(b, &virtio.Chain{Descs: []virtio.Desc{{GPA: 0, Len: 8}}}, simtime.New())
	if err == nil {
		t.Error("a chain without a status descriptor must fail")
	}
}

func TestHandleWindowStatusNotWritable(t *testing.T) {
	b, mem := testBackend(t, true)
	chain := buildChain(t, mem, virtio.Request{Op: virtio.OpCI}, nil)
	chain.Descs[len(chain.Descs)-1].Writable = false
	err := handle(b, chain, simtime.New())
	if err == nil || !strings.Contains(err.Error(), "not writable") {
		t.Errorf("read-only status descriptor: %v", err)
	}
}

func TestHandleWindowUnknownOp(t *testing.T) {
	b, mem := testBackend(t, true)
	chain := buildChain(t, mem, virtio.Request{Op: 99}, nil)
	err := handle(b, chain, simtime.New())
	if err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Errorf("unknown op: %v", err)
	}
	// The status descriptor must carry the failure.
	status, serr := mem.Slice(chain.Descs[len(chain.Descs)-1].GPA, 8)
	if serr != nil {
		t.Fatal(serr)
	}
	if status[0] != byte(virtio.StatusError) {
		t.Error("failure not reported in the status descriptor")
	}
}

func TestHandleDataMalformedMatrix(t *testing.T) {
	b, mem := testBackend(t, true)
	// Matrix metadata announcing 2 rows with no row descriptors.
	meta, err := mem.Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := virtio.PutU64s(meta.Data, []uint64{2}); err != nil {
		t.Fatal(err)
	}
	chain := buildChain(t, mem, virtio.Request{Op: virtio.OpWriteRank},
		[]virtio.Desc{{GPA: meta.GPA, Len: 8}})
	if err := handle(b, chain, simtime.New()); err == nil {
		t.Error("row/descriptor count mismatch must fail")
	}
}

func TestHandleDataRowShortPages(t *testing.T) {
	b, mem := testBackend(t, true)
	meta, err := mem.Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := virtio.PutU64s(meta.Data, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	// One row claiming 8192 bytes but providing a single page.
	page, err := mem.Alloc(hostmem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	rowMeta, err := mem.Alloc(8 * virtio.DPUMetaWords)
	if err != nil {
		t.Fatal(err)
	}
	if err := virtio.PutU64s(rowMeta.Data, []uint64{0, 8192, 0, 1, 0}); err != nil {
		t.Fatal(err)
	}
	pageBuf, err := mem.Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := virtio.PutU64s(pageBuf.Data, []uint64{page.GPA}); err != nil {
		t.Fatal(err)
	}
	chain := buildChain(t, mem, virtio.Request{Op: virtio.OpWriteRank}, []virtio.Desc{
		{GPA: meta.GPA, Len: 8},
		{GPA: rowMeta.GPA, Len: uint32(8 * virtio.DPUMetaWords)},
		{GPA: pageBuf.GPA, Len: 8},
	})
	err = handle(b, chain, simtime.New())
	// The hardened decode rejects the inconsistent geometry before any copy
	// starts (it used to surface later as a short-row copy error).
	if !errors.Is(err, ErrBadDescriptor) {
		t.Errorf("undersupplied row: %v", err)
	}
}

func TestControlQueueRejectsTransferOps(t *testing.T) {
	b, mem := testBackend(t, true)
	chain := buildChain(t, mem, virtio.Request{Op: virtio.OpWriteRank}, nil)
	err := handleControl(b, chain, simtime.New())
	if err == nil || !strings.Contains(err.Error(), "not valid on controlq") {
		t.Errorf("transfer op on controlq: %v", err)
	}
}

func TestAttachChargesManagerLatency(t *testing.T) {
	b, mem := testBackend(t, false)
	tr := simtime.NewTracker()
	tl := simtime.New()
	tl.Attach(tr)
	chain := buildChain(t, mem, virtio.Request{Op: virtio.OpAttach}, nil)
	if err := handleControl(b, chain, tl); err != nil {
		t.Fatal(err)
	}
	if b.Rank() == nil {
		t.Fatal("attach must link a rank")
	}
	if tr.Get("op:alloc") != b.model.ManagerAllocLatency {
		t.Errorf("alloc latency = %v, want %v", tr.Get("op:alloc"), b.model.ManagerAllocLatency)
	}
}
