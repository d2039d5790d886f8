package driver

import (
	"fmt"

	"repro/internal/pim"

	"repro/internal/sdk"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/virtio"
)

// WriteRank implements sdk.Device: a write-to-rank operation. Small writes
// are absorbed into the batch buffer when batching is on; everything else
// takes the zero-copy serialized-matrix path, synchronously.
func (f *Frontend) WriteRank(entries []sdk.DPUXfer, off int64, length int, tl *simtime.Timeline) error {
	var err error
	tl.Span(trace.OpWriteRank, func(tl *simtime.Timeline) {
		if err = f.ensureAttached(tl); err != nil {
			return
		}
		// Any write invalidates the prefetch cache (Section 4.1).
		f.cache.invalidate()
		// The threshold is policy; fitting the batch buffer is batchAppend's
		// responsibility (oversized records fall back to the matrix path).
		if f.batch != nil && length <= f.opts.BatchThreshold {
			err = f.batchAppend(entries, off, length, tl)
			return
		}
		if err = f.flushBatch(tl); err != nil {
			return
		}
		err = f.sendMatrix(virtio.OpWriteRank, entries, off, length, tl)
	})
	return err
}

// ReadRank implements sdk.Device: a read-from-rank operation, served from
// the prefetch cache when possible.
func (f *Frontend) ReadRank(entries []sdk.DPUXfer, off int64, length int, tl *simtime.Timeline) error {
	var err error
	tl.Span(trace.OpReadRank, func(tl *simtime.Timeline) {
		if err = f.ensureAttached(tl); err != nil {
			return
		}
		// Reads must observe every batched write.
		if err = f.flushBatch(tl); err != nil {
			return
		}
		if f.cache != nil && length <= f.cache.bytes() {
			err = f.readViaCache(entries, off, length, tl)
			return
		}
		err = f.sendMatrix(virtio.OpReadRank, entries, off, length, tl)
	})
	return err
}

// SymWrite implements sdk.Device: a host-symbol write travels as a small
// command with an inline payload. Like every non-write-to-rank request it
// flushes the batch first.
func (f *Frontend) SymWrite(dpu int, symbol string, off int, src []byte, tl *simtime.Timeline) error {
	return f.symWrite(uint32(dpu), symbol, off, src, tl)
}

// SymBroadcast implements sdk.Device: one message writes the symbol on
// every DPU (dpu_broadcast_to).
func (f *Frontend) SymBroadcast(symbol string, off int, src []byte, tl *simtime.Timeline) error {
	return f.symWrite(virtio.BroadcastDPU, symbol, off, src, tl)
}

// symWrite posts a symbol write. The payload is copied into the slot's
// symbol page, so the caller's buffer is free to change before the window
// drains.
func (f *Frontend) symWrite(dpu uint32, symbol string, off int, src []byte, tl *simtime.Timeline) error {
	var err error
	tl.Span(trace.OpCI, func(tl *simtime.Timeline) {
		if err = f.ensureAttached(tl); err != nil {
			return
		}
		if err = f.flushBatch(tl); err != nil {
			return
		}
		s := f.nextSlot()
		if len(src) > len(s.sym.Data) {
			err = fmt.Errorf("driver: symbol payload %d exceeds %d", len(src), len(s.sym.Data))
			return
		}
		copy(s.sym.Data, src)
		err = f.submit(f.tq, s, virtio.Request{
			Op:     virtio.OpSymWrite,
			DPU:    dpu,
			Offset: uint64(off),
			Length: uint64(len(src)),
			Symbol: symbol,
		}, []virtio.Desc{{GPA: s.sym.GPA, Len: uint32(len(src))}}, tl)
	})
	return err
}

// SymRead implements sdk.Device.
func (f *Frontend) SymRead(dpu int, symbol string, off int, dst []byte, tl *simtime.Timeline) error {
	var err error
	tl.Span(trace.OpCI, func(tl *simtime.Timeline) {
		if err = f.ensureAttached(tl); err != nil {
			return
		}
		if err = f.flushBatch(tl); err != nil {
			return
		}
		sym := f.sync.sym
		if len(dst) > len(sym.Data) {
			err = fmt.Errorf("driver: symbol payload %d exceeds %d", len(dst), len(sym.Data))
			return
		}
		if _, err = f.roundTrip(f.tq, virtio.Request{
			Op:     virtio.OpSymRead,
			DPU:    uint32(dpu),
			Offset: uint64(off),
			Length: uint64(len(dst)),
			Symbol: symbol,
		}, []virtio.Desc{{GPA: sym.GPA, Len: uint32(len(dst)), Writable: true}}, tl); err != nil {
			return
		}
		copy(dst, sym.Data[:len(dst)])
	})
	return err
}

// LoadProgram implements sdk.Device: ship the binary name; the backend loads
// it from the host registry onto every DPU.
func (f *Frontend) LoadProgram(name string, tl *simtime.Timeline) error {
	var err error
	tl.Span(trace.OpCI, func(tl *simtime.Timeline) {
		if err = f.ensureAttached(tl); err != nil {
			return
		}
		if err = f.flushBatch(tl); err != nil {
			return
		}
		f.cache.invalidate()
		f.booted = false
		_, err = f.roundTrip(f.tq, virtio.Request{Op: virtio.OpLoadProgram, Symbol: name}, nil, tl)
	})
	return err
}

// Launch implements sdk.Device: start the program, then poll the device
// status with CI commands until completion — each poll a full guest<->VMM
// round trip, which is why CI-heavy programs (checksum) suffer under
// virtualization (Fig. 12).
func (f *Frontend) Launch(dpus []int, tl *simtime.Timeline) error {
	if _, err := f.startLaunch(dpus, tl); err != nil {
		return err
	}
	// Only a launch the device accepted leaves the chips booted: a failed
	// send (injected fault, dead rank, failover re-attach) must pay the
	// full per-chip CI boot sequence again on retry.
	f.booted = true
	interval := f.model.LaunchPollInterval
	for {
		start := tl.Now()
		var done bool
		var err error
		tl.Span(trace.OpCI, func(tl *simtime.Timeline) {
			var payload []byte
			payload, err = f.roundTrip(f.tq, virtio.Request{Op: virtio.OpCI, Offset: ciCmdStatus}, nil, tl)
			if err == nil {
				done = len(payload) > 0 && payload[0] != 0
			}
		})
		if err != nil || done {
			return err
		}
		if spent := tl.Now() - start; spent < interval {
			// The SDK sleeps out the rest of the poll interval.
			tl.Advance(interval - spent)
		}
	}
}

// LaunchStart implements sdk.Device: the asynchronous launch. The backend
// reports the completion instant in the response payload (a paravirtual
// shortcut the synchronous path does not need), so the guest can overlap
// host work and sleep until completion instead of polling.
func (f *Frontend) LaunchStart(dpus []int, tl *simtime.Timeline) (simtime.Duration, error) {
	payload, err := f.startLaunch(dpus, tl)
	if err != nil {
		return 0, err
	}
	// The completion instant is the whole point of the asynchronous launch:
	// a short or garbled response must be an explicit device error, not a
	// zero that makes the guest sleep nothing and treat a still-running
	// rank as done. A real completion can never be zero — the virtual clock
	// is past device boot by the time a launch is possible.
	v, err := virtio.GetU64(payload, 0)
	if err != nil || v == 0 {
		return 0, fmt.Errorf("%w: launch response missing completion time", ErrDeviceError)
	}
	f.booted = true
	return simtime.Duration(v), nil
}

// startLaunch is the prologue both launches share: attach, flush the batch,
// invalidate the cache (CI operations), charge the CI boot sequence and send
// OpLaunch for the listed DPUs. It returns the device's response payload.
func (f *Frontend) startLaunch(dpus []int, tl *simtime.Timeline) ([]byte, error) {
	if err := f.ensureAttached(tl); err != nil {
		return nil, err
	}
	if err := f.flushBatch(tl); err != nil {
		return nil, err
	}
	f.cache.invalidate()
	// The mask cannot carry a DPU past bit 63 or a repeated one, so the
	// list is checked here as a native launch checks it.
	var mask uint64
	for _, d := range dpus {
		if d < 0 || d >= 64 {
			return nil, fmt.Errorf("driver: %w: %d", pim.ErrBadDPU, d)
		}
		if mask&(1<<uint(d)) != 0 {
			return nil, fmt.Errorf("driver: %w: %d listed twice", pim.ErrBadDPU, d)
		}
		mask |= 1 << uint(d)
	}
	// The CI boot sequence: each operation is a full guest<->VMM round
	// trip, accounted in aggregate (the individual messages carry no
	// payload). The per-chip boot sequence runs on the first launch after
	// a load; relaunches only restart the chips.
	boot := int64(pim.ChipsPerRank)
	if !f.booted {
		boot = int64(pim.ChipsPerRank) * int64(f.model.LaunchCIOpsPerChip)
	}
	f.path.AddRoundTrips(boot)
	f.cMessages.Add(boot)
	tl.Charge(trace.OpCI,
		simtime.Duration(boot)*(f.model.MessageRoundTrip()+f.model.CIOperation))

	var payload []byte
	var err error
	tl.Span(trace.OpCI, func(tl *simtime.Timeline) {
		payload, err = f.roundTrip(f.tq, virtio.Request{Op: virtio.OpLaunch, DPUMask: mask}, nil, tl)
	})
	return payload, err
}

// ciCmdStatus is the CI command code for a status poll (Request.Offset).
const ciCmdStatus = 1

// Release implements sdk.Device: detach the physical rank (Detach) so the
// manager can reallocate it (after a reset) to another VM. Like attach it
// synchronizes with the manager over the controlq — the spec reserves that
// queue for manager synchronization, and routing it over the transferq
// would skew the per-queue chain counters the conformance identities link
// across layers.
func (f *Frontend) Release(tl *simtime.Timeline) error { return f.Detach(tl) }
