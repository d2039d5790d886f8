// Package native implements the SDK's performance mode: the host
// application maps ranks directly (no driver, no hypervisor) and operates
// them with the C/AVX512 copy path. This is the paper's baseline ("native")
// in every figure.
package native

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/pim"
	"repro/internal/sdk"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// RankPool hands physical ranks to native applications and takes them back.
// The manager implements it; its observer treats native usage and VM usage
// uniformly (requirement R3: native apps coexist with VMs unmodified).
type RankPool interface {
	// AcquireNative reserves ranks covering at least nrDPUs DPUs.
	AcquireNative(nrDPUs int) ([]*pim.Rank, error)
	// ReleaseNative returns a rank; the pool resets it before reuse.
	ReleaseNative(r *pim.Rank)
}

// Device drives one rank in performance mode. It implements sdk.Device.
type Device struct {
	rank     *pim.Rank
	registry *pim.Registry
	model    cost.Model
	pool     RankPool
	// booted records whether the loaded program's expensive per-DPU CI
	// boot sequence has already run; relaunches only restart the chips.
	booted bool
}

var _ sdk.Device = (*Device)(nil)

// NewDevice wraps a rank for direct host access. The registry resolves DPU
// binary names at load time.
func NewDevice(rank *pim.Rank, registry *pim.Registry, model cost.Model, pool RankPool) *Device {
	return &Device{rank: rank, registry: registry, model: model, pool: pool}
}

// NumDPUs implements sdk.Device.
func (d *Device) NumDPUs() int { return d.rank.NumDPUs() }

// MRAMBytes implements sdk.Device.
func (d *Device) MRAMBytes() int64 { return d.rank.MRAMBytes() }

// FrequencyMHz implements sdk.Device.
func (d *Device) FrequencyMHz() int { return d.rank.FrequencyMHz() }

// Rank exposes the underlying rank (tests and the manager need it).
func (d *Device) Rank() *pim.Rank { return d.rank }

// LoadProgram implements sdk.Device: resolve the binary and write it into
// every DPU's IRAM.
func (d *Device) LoadProgram(name string, tl *simtime.Timeline) error {
	var err error
	tl.Span(trace.OpCI, func(tl *simtime.Timeline) {
		err = LoadProgram(d.rank, d.registry, name, d.model, tl)
	})
	d.booted = false
	return err
}

// LoadProgram resolves a binary name and loads it on every DPU of a rank,
// charging the IRAM copy cost. The vPIM backend performs the identical
// physical operation, so it shares this helper.
func LoadProgram(rank *pim.Rank, registry *pim.Registry, name string, model cost.Model, tl *simtime.Timeline) error {
	kernel, err := registry.Lookup(name)
	if err != nil {
		return err
	}
	for dpu := 0; dpu < rank.NumDPUs(); dpu++ {
		if err := rank.LoadProgram(dpu, kernel); err != nil {
			return fmt.Errorf("load dpu %d: %w", dpu, err)
		}
	}
	perDPU := model.OpSetup + model.CopyDuration(cost.EngineC, int64(kernel.CodeBytes))
	tl.Workers(rank.NumDPUs(), model.OpThreads, perDPU)
	return nil
}

// WriteRank implements sdk.Device: it copies each entry into its DPU's MRAM
// bank, and entries that all share one buffer are stored once with one
// Rank.WriteDPUs. The cost model charges the rank's interleaving scatter,
// parallelized across the SDK's transfer threads.
func (d *Device) WriteRank(entries []sdk.DPUXfer, off int64, length int, tl *simtime.Timeline) error {
	var err error
	tl.Span(trace.OpWriteRank, func(tl *simtime.Timeline) {
		if dpus := sharedBuffer(entries, length); dpus != nil {
			if werr := d.rank.WriteDPUs(dpus, off, entries[0].Buf.Data[:length]); werr != nil {
				err = fmt.Errorf("write dpus: %w", werr)
				return
			}
		} else {
			for _, e := range entries {
				if werr := d.rank.WriteDPU(e.DPU, off, e.Buf.Data[:length]); werr != nil {
					err = fmt.Errorf("write dpu %d: %w", e.DPU, werr)
					return
				}
			}
		}
		tl.Advance(d.model.RankOpDuration(cost.EngineC, uniformSizes(len(entries), length)))
	})
	return err
}

// sharedBuffer lists the entries' DPUs when every entry pushes the same
// buffer, and returns nil otherwise.
func sharedBuffer(entries []sdk.DPUXfer, length int) []int {
	if len(entries) < 2 || length == 0 {
		return nil
	}
	src := &entries[0].Buf.Data[:length][0]
	dpus := make([]int, len(entries))
	for i, e := range entries {
		if &e.Buf.Data[:length][0] != src {
			return nil
		}
		dpus[i] = e.DPU
	}
	return dpus
}

// ReadRank implements sdk.Device.
func (d *Device) ReadRank(entries []sdk.DPUXfer, off int64, length int, tl *simtime.Timeline) error {
	var err error
	tl.Span(trace.OpReadRank, func(tl *simtime.Timeline) {
		for _, e := range entries {
			if rerr := d.rank.ReadDPU(e.DPU, off, e.Buf.Data[:length]); rerr != nil {
				err = fmt.Errorf("read dpu %d: %w", e.DPU, rerr)
				return
			}
		}
		tl.Advance(d.model.RankOpDuration(cost.EngineC, uniformSizes(len(entries), length)))
	})
	return err
}

// SymWrite implements sdk.Device: a control-interface access.
func (d *Device) SymWrite(dpu int, symbol string, off int, src []byte, tl *simtime.Timeline) error {
	if err := d.rank.SymbolWrite(dpu, symbol, off, src); err != nil {
		return err
	}
	d.rank.CIOp()
	tl.Charge(trace.OpCI, d.model.CIOperation)
	return nil
}

// SymBroadcast implements sdk.Device: one chip-broadcast CI operation
// writes the symbol on every DPU.
func (d *Device) SymBroadcast(symbol string, off int, src []byte, tl *simtime.Timeline) error {
	for dpu := 0; dpu < d.rank.NumDPUs(); dpu++ {
		if err := d.rank.SymbolWrite(dpu, symbol, off, src); err != nil {
			return err
		}
	}
	d.rank.CIOp()
	tl.Charge(trace.OpCI, d.model.CIOperation)
	return nil
}

// SymRead implements sdk.Device.
func (d *Device) SymRead(dpu int, symbol string, off int, dst []byte, tl *simtime.Timeline) error {
	if err := d.rank.SymbolRead(dpu, symbol, off, dst); err != nil {
		return err
	}
	d.rank.CIOp()
	tl.Charge(trace.OpCI, d.model.CIOperation)
	return nil
}

// Launch implements sdk.Device: boot the DPUs, then poll the control
// interface until completion, exactly as the SDK's synchronous launch does.
// The poll count is what makes checksum CI-heavy in Fig. 12.
func (d *Device) Launch(dpus []int, tl *simtime.Timeline) error {
	dur, err := d.start(dpus, tl)
	if err != nil {
		return err
	}
	pollAndWait(tl, dur, d.model.LaunchPollInterval, d.model.CIOperation, d.rank)
	return nil
}

// start is the prologue both launches share: run the program on the listed
// DPUs and charge the launch with its control-interface operations, a
// per-chip boot sequence the first time a loaded program starts and one
// restart command per chip afterwards. It returns the program's run time.
func (d *Device) start(dpus []int, tl *simtime.Timeline) (simtime.Duration, error) {
	res, err := d.rank.Launch(dpus)
	if err != nil {
		return 0, err
	}
	boot := int64(pim.ChipsPerRank)
	if !d.booted {
		boot *= int64(d.model.LaunchCIOpsPerChip)
	}
	d.booted = true
	d.rank.CIOps(boot)
	tl.Charge(trace.OpCI, d.model.LaunchFixed+simtime.Duration(boot)*d.model.CIOperation)
	return res.Duration, nil
}

// uniformSizes builds a per-row size list for uniform transfers.
func uniformSizes(n, length int) []int {
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = length
	}
	return sizes
}

// LaunchStart implements sdk.Device: boot the DPUs and return without
// polling (DPU_ASYNCHRONOUS); the SDK's Sync waits out the completion.
func (d *Device) LaunchStart(dpus []int, tl *simtime.Timeline) (simtime.Duration, error) {
	dur, err := d.start(dpus, tl)
	if err != nil {
		return 0, err
	}
	return tl.Now() + dur, nil
}

// pollAndWait advances the timeline across a launch of the given duration,
// charging one CI status poll per poll interval. If polls cost more than the
// interval (as they do through the virtualized path), polling itself
// stretches the elapsed time.
func pollAndWait(tl *simtime.Timeline, dur, interval, pollCost simtime.Duration, rank *pim.Rank) {
	deadline := tl.Now() + dur
	for tl.Now() < deadline {
		step := interval
		if pollCost > step {
			step = pollCost
		}
		if remaining := deadline - tl.Now(); step > remaining && pollCost <= remaining {
			step = remaining
		}
		tl.Charge(trace.OpCI, pollCost)
		if step > pollCost {
			tl.Advance(step - pollCost)
		}
		rank.CIOp()
	}
}

// Release implements sdk.Device.
func (d *Device) Release(tl *simtime.Timeline) error {
	if d.pool != nil {
		d.pool.ReleaseNative(d.rank)
	}
	return nil
}
