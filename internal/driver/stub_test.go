// Package-internal tests exercise the frontend against a stub device: a
// queue handler that answers the config request and the status word without
// a backend, so guest-side cost charges and buffer ownership can be pinned
// in isolation. The full-stack twins live in the external driver_test
// package and the conformance harness.
package driver

import (
	"encoding/binary"
	"testing"

	"repro/internal/cost"
	"repro/internal/hostmem"
	"repro/internal/kvm"
	"repro/internal/sdk"
	"repro/internal/simtime"
	"repro/internal/virtio"
)

// stubStack builds an attached frontend whose queues answer every request
// with StatusOK and a fixed 4-DPU geometry.
func stubStack(t *testing.T, opts Options) (*Frontend, *hostmem.Memory, *virtio.Queue, *simtime.Timeline) {
	t.Helper()
	mem := hostmem.New(64 << 20)
	model := cost.Default()
	tq := virtio.NewQueue("transferq", virtio.TransferQueueSize)
	cq := virtio.NewQueue("controlq", 64)
	handler := func(chain *virtio.Chain, tl *simtime.Timeline) error {
		hdr := chain.Descs[0]
		buf, err := mem.Slice(hdr.GPA, int(hdr.Len))
		if err != nil {
			return err
		}
		req, err := virtio.DecodeRequest(buf)
		if err != nil {
			return err
		}
		if req.Op == virtio.OpConfig && len(chain.Descs) == 3 {
			cfgDesc := chain.Descs[1]
			cfgBuf, err := mem.Slice(cfgDesc.GPA, int(cfgDesc.Len))
			if err != nil {
				return err
			}
			if err := virtio.EncodeConfig(virtio.DeviceConfig{
				NumDPUs: 4, FrequencyMHz: 350, MRAMBytes: 1 << 20, NumCIs: 8,
			}, cfgBuf); err != nil {
				return err
			}
		}
		st := chain.Descs[len(chain.Descs)-1]
		stBuf, err := mem.Slice(st.GPA, int(st.Len))
		if err != nil {
			return err
		}
		return virtio.PutU64s(stBuf, []uint64{uint64(virtio.StatusOK)})
	}
	tq.SetHandler(perChain(handler))
	cq.SetHandler(perChain(handler))
	f := New("stub", mem, kvm.NewPath(model), tq, cq, model, opts)
	tl := simtime.New()
	if err := f.Attach(tl); err != nil {
		t.Fatal(err)
	}
	return f, mem, tq, tl
}

// perChain adapts a one-chain stub into a window handler that serves each
// chain of the window in order.
func perChain(fn func(chain *virtio.Chain, tl *simtime.Timeline) error) virtio.Handler {
	return func(chains []*virtio.Chain, tl *simtime.Timeline) []error {
		errs := make([]error, len(chains))
		for i, c := range chains {
			errs[i] = fn(c, tl)
		}
		return errs
	}
}

// TestGuestCopyChargesEngineC pins the calibration decision that guest-side
// staging copies — packing a small write into the batch buffer — model a
// host memcpy and are charged at the C engine's copy rate regardless of
// which transfer engine the device is configured with. The device engine
// governs backend DMA only; plumbing it into guest memcpys would change
// every Table 2 variant's clock for a copy the device never performs (see
// DESIGN.md "Guest staging copies are engine-independent").
func TestGuestCopyChargesEngineC(t *testing.T) {
	f, mem, _, tl := stubStack(t, Options{Batch: true})
	const length = 4096
	buf, err := mem.Alloc(length)
	if err != nil {
		t.Fatal(err)
	}
	start := tl.Now()
	if err := f.WriteRank([]sdk.DPUXfer{{DPU: 0, Buf: buf}}, 0, length, tl); err != nil {
		t.Fatal(err)
	}
	got := tl.Now() - start
	model := cost.Default()
	want := model.BatchAppend + model.CopyDuration(cost.EngineC, length)
	if got != want {
		t.Fatalf("batched append charged %v, want BatchAppend+C-engine copy = %v", got, want)
	}
	if rust := model.BatchAppend + model.CopyDuration(cost.EngineRust, length); want == rust {
		t.Fatalf("C and Rust engines indistinguishable at %d bytes; pick a size where the rates differ", length)
	}
}

// TestSendReturnsOwnedPayload: the response payload a synchronous request
// returns must be a copy the caller owns. Before the fix it aliased the frontend's status
// buffer, so the next request silently rewrote every previously returned
// response under the caller's feet.
func TestSendReturnsOwnedPayload(t *testing.T) {
	f, mem, tq, tl := stubStack(t, Options{})
	var seq uint64
	tq.SetHandler(perChain(func(chain *virtio.Chain, tl *simtime.Timeline) error {
		seq++
		st := chain.Descs[len(chain.Descs)-1]
		buf, err := mem.Slice(st.GPA, int(st.Len))
		if err != nil {
			return err
		}
		return virtio.PutU64s(buf, []uint64{uint64(virtio.StatusOK), seq})
	}))
	first, err := f.roundTrip(tq, virtio.Request{Op: virtio.OpCI, Offset: ciCmdStatus}, nil, tl)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(first); got != 1 {
		t.Fatalf("first response payload = %d, want 1", got)
	}
	if _, err := f.roundTrip(tq, virtio.Request{Op: virtio.OpCI, Offset: ciCmdStatus}, nil, tl); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(first); got != 1 {
		t.Fatalf("first response mutated to %d by the second request: payload aliases the status buffer", got)
	}
}
