// Package cost defines the calibrated cost model that converts functional
// work (messages, pages, bytes, DPU cycles) into virtual time.
//
// Every constant is documented with the paper observation it is calibrated
// against. The model intentionally has few degrees of freedom: the paper's
// central finding is that virtualization overhead is dominated by the number
// of guest↔VMM transitions (fixed cost per message) rather than the amount
// of data moved (linear cost per byte), so the model is "fixed per message +
// linear per page + linear per byte + DPU cycles".
package cost

import "time"

// Engine selects the backend copy implementation (Section 4.2, "AVX512 and C
// enhancements in Firecracker").
type Engine int

const (
	// EngineC is the C/AVX512 byte-interleaving and copy path. This is the
	// default in vPIM and the implementation native execution uses.
	EngineC Engine = iota + 1
	// EngineRust is the original Rust/AVX2 path, ~3.4x slower per byte
	// (the paper reports up to 343% improvement from the C rewrite).
	EngineRust
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case EngineC:
		return "C"
	case EngineRust:
		return "rust"
	default:
		return "unknown"
	}
}

// Model holds every timing parameter of the simulation. All durations are
// virtual time. The zero value is not useful; start from Default.
type Model struct {
	// --- Guest <-> VMM transition costs (internal/kvm). Calibrated so that
	// NW's >650k small transfers produce the ~53x naive overhead of Fig. 14
	// and Firecracker's documented ~26x 4KB-IO overhead stays plausible.

	// TrapToVMM is the guest driver notify: VMEXIT in KVM plus dispatch into
	// the Firecracker event loop.
	TrapToVMM time.Duration
	// EventDispatch is Firecracker's event-manager bookkeeping per request.
	EventDispatch time.Duration
	// IRQInject is the interrupt injection back into the guest plus the
	// guest driver wakeup.
	IRQInject time.Duration
	// ThreadSpawn is the cost of handing a request to a dedicated thread
	// when parallel operation handling is enabled (Section 4.2).
	ThreadSpawn time.Duration

	// --- Frontend costs (internal/driver).

	// PageManagement is the per-page cost of re-anchoring userspace pages to
	// kernel pointers before serialization (Fig. 13 "Page").
	PageManagement time.Duration
	// SerializePage is the per-page cost of converting a Linux page struct
	// into a guest physical address in the virtqueue buffers (Fig. 13 "Ser").
	SerializePage time.Duration
	// SerializeDPU is the per-DPU metadata cost during serialization.
	SerializeDPU time.Duration
	// VirtqueuePush is the fixed cost of posting the request descriptors.
	VirtqueuePush time.Duration

	// --- Backend costs (internal/backend).

	// DeserializeDPU is the per-DPU cost of reassembling the transfer matrix.
	DeserializeDPU time.Duration
	// TranslatePage is the per-page GPA->HVA translation cost; it is divided
	// across TranslateThreads.
	TranslatePage time.Duration
	// TranslateThreads is the number of translation workers (Section 4.2
	// "using several threads to accelerate the translation").
	TranslateThreads int
	// OpThreads is the number of backend threads executing DPU operations
	// (8 in the prototype: one chip of 8 DPUs at a time).
	OpThreads int
	// OpSetup is the fixed per-DPU cost of starting a rank data operation.
	OpSetup time.Duration

	// CopyBytesPerSecC is the C/AVX512 engine bandwidth for rank data
	// transfers, including byte interleaving.
	CopyBytesPerSecC float64
	// CopyBytesPerSecRust is the Rust/AVX2 engine bandwidth (~3.4x slower).
	CopyBytesPerSecRust float64

	// CIOperation is the host-side cost of one control-interface operation
	// executed on the rank (both native and backend pay this).
	CIOperation time.Duration

	// --- Optimization path costs (Section 4.1).

	// BatchAppend is the frontend's fixed cost of staging one small write
	// into the batch buffer (on top of the data memcpy).
	BatchAppend time.Duration
	// BatchRecord is the backend's fixed cost of applying one packed batch
	// record to the rank (on top of the data copy).
	BatchRecord time.Duration
	// CacheHit is the frontend's fixed cost of serving a read from the
	// prefetch cache (on top of the data memcpy).
	CacheHit time.Duration
	// BcastFanout is the backend's per-target cost of a broadcast: checking
	// one DPU its header mask names and dispatching the payload row to it.
	// It is charged in the deserialization lane: the replicated rank-side
	// byte movement keeps its full RankOpDuration, so broadcast savings stay
	// confined to the page/serialize/translate work that is genuinely
	// deduplicated.
	BcastFanout time.Duration

	// --- DPU hardware (internal/pim).

	// DPUCyclesPerSec is the DPU clock (350 MHz on the evaluation
	// machine). Stored as a rate because one cycle (~2.857 ns) is not
	// representable as an integer time.Duration.
	DPUCyclesPerSec float64
	// MRAMBytesPerSec is the DPU-side MRAM<->WRAM DMA bandwidth per DPU.
	MRAMBytesPerSec float64
	// MRAMLatency is the fixed DMA setup latency per mram_read/mram_write.
	MRAMLatency time.Duration
	// LaunchPollInterval is the host polling interval while a DPU program
	// runs; each poll is a CI operation (and a full guest<->VMM round trip
	// under virtualization), which is what makes checksum CI-heavy (Fig 12).
	LaunchPollInterval time.Duration
	// LaunchFixed is the fixed host cost of starting a launch.
	LaunchFixed time.Duration
	// LaunchCIOpsPerChip is the number of control-interface operations the
	// SDK issues per PIM chip to boot a launch after a program load;
	// relaunches of an already-booted program cost one restart command per
	// chip. Boot commands are chip-broadcasts on real hardware, so the
	// count scales with chips, not DPUs.
	LaunchCIOpsPerChip int

	// --- Manager costs (internal/manager, Section 4.2 "Manager's Overhead").

	// ManagerAllocLatency is the round trip for a rank allocation when a
	// NAAV rank is available (36 ms on average in the paper).
	ManagerAllocLatency time.Duration
	// ManagerResetNsPerByte is the memset cost during rank reset in
	// nanoseconds per byte; 8 GB of rank-mapped memory takes ~597 ms in the
	// paper, i.e. ~0.0746 ns/B.
	ManagerResetNsPerByte float64

	// --- VM lifecycle (Section 3.2).

	// BootPerDevice is the boot-time overhead of one vUPMEM device (<=2 ms).
	BootPerDevice time.Duration
}

// Default returns the calibrated model. See DESIGN.md "Timing model" for the
// calibration targets; TestCalibration in the root package asserts that the
// headline figures land inside the paper's ranges.
func Default() Model {
	return Model{
		TrapToVMM:     12 * time.Microsecond,
		EventDispatch: 4 * time.Microsecond,
		IRQInject:     10 * time.Microsecond,
		ThreadSpawn:   1 * time.Microsecond,

		PageManagement: 150 * time.Nanosecond,
		SerializePage:  35 * time.Nanosecond,
		SerializeDPU:   250 * time.Nanosecond,
		VirtqueuePush:  500 * time.Nanosecond,

		DeserializeDPU:   300 * time.Nanosecond,
		TranslatePage:    90 * time.Nanosecond,
		TranslateThreads: 8,
		OpThreads:        8,
		OpSetup:          150 * time.Nanosecond,

		// Per-thread rank copy bandwidth; 8 operation threads together
		// reach the ~6 GB/s CPU-DPU bandwidth PrIM measures per rank. The
		// Rust path is 3.43x slower (the paper's 343% C improvement).
		CopyBytesPerSecC:    800e6,
		CopyBytesPerSecRust: 800e6 / 3.43,

		CIOperation: 2 * time.Microsecond,

		BatchAppend: 150 * time.Nanosecond,
		BatchRecord: 200 * time.Nanosecond,
		CacheHit:    300 * time.Nanosecond,
		BcastFanout: 10 * time.Nanosecond,

		DPUCyclesPerSec:    350e6,
		MRAMBytesPerSec:    700e6,
		MRAMLatency:        200 * time.Nanosecond,
		LaunchPollInterval: 12 * time.Microsecond,
		LaunchFixed:        20 * time.Microsecond,
		LaunchCIOpsPerChip: 8,

		ManagerAllocLatency:   36 * time.Millisecond,
		ManagerResetNsPerByte: 597e6 / 8e9, // 597 ms per 8 GB

		BootPerDevice: 2 * time.Millisecond,
	}
}

// MessageRoundTrip is the fixed virtual cost of one frontend->backend->
// frontend exchange excluding any payload work: trap, dispatch, IRQ.
func (m Model) MessageRoundTrip() time.Duration {
	return m.TrapToVMM + m.EventDispatch + m.IRQInject
}

// CopyDuration converts a byte count into copy time for the given engine.
func (m Model) CopyDuration(engine Engine, bytes int64) time.Duration {
	if bytes <= 0 {
		return 0
	}
	bw := m.CopyBytesPerSecC
	if engine == EngineRust {
		bw = m.CopyBytesPerSecRust
	}
	return time.Duration(float64(bytes) / bw * float64(time.Second))
}

// RankOpDuration is the virtual time of one rank data operation moving the
// given per-DPU byte counts. The backend's operation threads split the work:
// large transfers parallelize across all threads (aggregate bandwidth) and
// each row pays a setup slot (ceil(rows/threads) rounds).
func (m Model) RankOpDuration(engine Engine, sizes []int) time.Duration {
	if len(sizes) == 0 {
		return 0
	}
	threads := m.OpThreads
	if threads < 1 {
		threads = 1
	}
	var total int64
	for _, s := range sizes {
		total += int64(s)
	}
	rounds := (len(sizes) + threads - 1) / threads
	return time.Duration(rounds)*m.OpSetup +
		m.CopyDuration(engine, (total+int64(threads)-1)/int64(threads))
}

// MRAMTransfer is the DPU-side DMA time for one mram_read/mram_write of the
// given size.
func (m Model) MRAMTransfer(bytes int) time.Duration {
	if bytes <= 0 {
		return 0
	}
	return m.MRAMLatency +
		time.Duration(float64(bytes)/m.MRAMBytesPerSec*float64(time.Second))
}

// Cycles converts a DPU cycle count into virtual time.
func (m Model) Cycles(n int64) time.Duration {
	if n <= 0 {
		return 0
	}
	return time.Duration(float64(n) / m.DPUCyclesPerSec * float64(time.Second))
}

// ResetDuration is the manager's rank-reset (memset) time for a rank with
// the given MRAM bytes.
func (m Model) ResetDuration(rankBytes int64) time.Duration {
	if rankBytes <= 0 {
		return 0
	}
	return time.Duration(float64(rankBytes) * m.ManagerResetNsPerByte)
}
