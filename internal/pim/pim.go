// Package pim models the UPMEM processing-in-memory hardware: ranks of DRAM
// Processing Units (DPUs), their MRAM/WRAM/IRAM memories, the control
// interface (CI), and the execution of DPU programs on tasklets.
//
// The model is functional: bytes written through the host interface really
// land in the DPUs' MRAM banks and DPU kernels really compute on them, so
// every application result can be checked against a CPU reference. Each
// bank is a table of copy-on-write chunks, so a push of one buffer to many
// DPUs, and a snapshot, store their bytes once. Timing is virtual: kernels
// account instruction cycles and DMA transfers, and Launch converts them
// into a virtual duration using the calibrated cost model. The rank-level
// byte interleaving is charged by the cost model, not performed; the rank
// tracks only the interleaved layout's footprint, which checkpoint and
// restore charges depend on.
//
// Hardware parameters follow Section 2 of the paper: a rank has 64 DPUs in 8
// chips of 8; each DPU has a 64 MB MRAM bank, 64 KB WRAM, 24 KB IRAM and
// runs up to 24 tasklets; the pipeline retires one instruction per cycle
// only when at least 11 tasklets are resident.
package pim

import "errors"

// Architectural constants of the UPMEM hardware generation evaluated in the
// paper.
const (
	// DPUsPerChip is the number of DPUs in one PIM memory chip.
	DPUsPerChip = 8
	// ChipsPerRank is the number of PIM chips in one rank.
	ChipsPerRank = 8
	// MaxDPUsPerRank is the architectural DPU count of a rank.
	MaxDPUsPerRank = DPUsPerChip * ChipsPerRank
	// DefaultMRAMBytes is the per-DPU MRAM bank size (64 MB).
	DefaultMRAMBytes = 64 << 20
	// WRAMBytes is the per-DPU working memory size (64 KB).
	WRAMBytes = 64 << 10
	// IRAMBytes is the per-DPU instruction memory size (24 KB).
	IRAMBytes = 24 << 10
	// MaxTasklets is the hardware thread count of one DPU.
	MaxTasklets = 24
	// PipelineDepth is the number of cycles that must separate two
	// consecutive instructions of the same tasklet.
	PipelineDepth = 11
	// MaxDMABytes is the largest single MRAM<->WRAM DMA transfer.
	MaxDMABytes = 2048
	// DMAAlign is the required alignment of MRAM DMA transfers.
	DMAAlign = 8
	// MaxTransferBytes is the hardware cap of a single rank operation
	// (Section 3.1: 4 GB per operation).
	MaxTransferBytes = 4 << 30
)

// Errors returned by the hardware model. They correspond to conditions the
// real SDK reports (or faults on).
var (
	ErrBadAlignment     = errors.New("pim: MRAM access is not 8-byte aligned")
	ErrDMATooLarge      = errors.New("pim: DMA transfer exceeds 2048 bytes")
	ErrOutOfRange       = errors.New("pim: access beyond MRAM bank")
	ErrWRAMOverflow     = errors.New("pim: WRAM allocation exceeds 64 KB")
	ErrIRAMOverflow     = errors.New("pim: program exceeds 24 KB IRAM")
	ErrTooManyTasklets  = errors.New("pim: kernel requests more than 24 tasklets")
	ErrNoProgram        = errors.New("pim: no program loaded")
	ErrNoSymbol         = errors.New("pim: unknown host symbol")
	ErrBadDPU           = errors.New("pim: DPU index out of range")
	ErrBusy             = errors.New("pim: rank is busy")
	ErrDeadlock         = errors.New("pim: tasklets deadlocked")
	ErrDPUFault         = errors.New("pim: DPU fault")
	ErrTransferTooLarge = errors.New("pim: rank operation exceeds 4 GB")
)
