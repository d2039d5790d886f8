package native

import (
	"fmt"

	"repro/internal/hostmem"
	"repro/internal/pim"
	"repro/internal/sdk"
	"repro/internal/simtime"
)

// Env is the native execution environment: the application runs on the host
// and maps ranks directly. It implements sdk.Env.
type Env struct {
	machine *pim.Machine
	pool    RankPool
	mem     *hostmem.Memory
	tl      *simtime.Timeline
	tracker *simtime.Tracker
}

var _ sdk.Env = (*Env)(nil)

// NewEnv builds a native environment with ramBytes of host memory for
// application buffers.
func NewEnv(machine *pim.Machine, pool RankPool, ramBytes int64) *Env {
	tracker := simtime.NewTracker()
	tl := simtime.New()
	tl.Attach(tracker)
	return &Env{
		machine: machine,
		pool:    pool,
		mem:     hostmem.New(ramBytes),
		tl:      tl,
		tracker: tracker,
	}
}

// AllocSet implements sdk.Env: acquire ranks covering nrDPUs and expose them
// in performance mode.
func (e *Env) AllocSet(nrDPUs int) (*sdk.Set, error) {
	ranks, err := e.pool.AcquireNative(nrDPUs)
	if err != nil {
		return nil, fmt.Errorf("acquire ranks: %w", err)
	}
	devs := make([]sdk.Device, len(ranks))
	for i, r := range ranks {
		devs[i] = NewDevice(r, e.machine.Registry(), e.machine.Model(), e.pool)
	}
	return sdk.NewSet(devs, nrDPUs, e.tl)
}

// AllocBuffer implements sdk.Env.
func (e *Env) AllocBuffer(n int) (hostmem.Buffer, error) {
	return e.mem.Alloc(n)
}

// FreeBuffer implements sdk.Env.
func (e *Env) FreeBuffer(buf hostmem.Buffer) error {
	return e.mem.Free(buf.GPA)
}

// Timeline implements sdk.Env.
func (e *Env) Timeline() *simtime.Timeline { return e.tl }

// Tracker implements sdk.Env.
func (e *Env) Tracker() *simtime.Tracker { return e.tracker }
