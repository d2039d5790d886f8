package pim

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/cost"
)

// flatRank is the reference model of a rank's MRAM: one flat byte slice per
// DPU, plus the 1 MiB chunks of the interleaved physical layout that writes
// have touched, where block k (2 KiB) of DPU d sits at physical block
// k*DPUs + d.
type flatRank struct {
	banks     [][]byte
	footprint []uint64
}

func newFlatRank(dpus int, mram int64) *flatRank {
	f := &flatRank{banks: make([][]byte, dpus)}
	for d := range f.banks {
		f.banks[d] = make([]byte, mram)
	}
	blocks := (mram + 2047) / 2048
	chunks := (blocks*int64(dpus)*2048 + 1<<20 - 1) >> 20
	f.footprint = make([]uint64, (chunks+63)/64)
	return f
}

func (f *flatRank) write(d int, off int64, src []byte) {
	copy(f.banks[d][off:], src)
	for k := off / 2048; len(src) > 0 && k <= (off+int64(len(src))-1)/2048; k++ {
		c := (k*int64(len(f.banks)) + int64(d)) * 2048 / (1 << 20)
		f.footprint[c/64] |= 1 << (c % 64)
	}
}

func (f *flatRank) committedBytes() int64 {
	n := 0
	for _, w := range f.footprint {
		n += bits.OnesCount64(w)
	}
	return int64(n) << 20
}

func (f *flatRank) clone() *flatRank {
	return &flatRank{banks: cloneBanks(f.banks), footprint: append([]uint64(nil), f.footprint...)}
}

// check compares every DPU of r, and the footprint r charges checkpoints
// by, with the model.
func (f *flatRank) check(t *testing.T, what string, r *Rank) {
	t.Helper()
	for i, want := range f.footprint {
		if got := r.footprint[i].Load(); got != want {
			t.Fatalf("%s: footprint word %d = %#x, the interleaved layout touched %#x", what, i, got, want)
		}
	}
	got := make([]byte, r.MRAMBytes())
	for d := range f.banks {
		if err := r.ReadDPU(d, 0, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, f.banks[d]) {
			i := 0
			for got[i] == f.banks[d][i] {
				i++
			}
			t.Fatalf("%s: dpu %d byte %d = %#x, the flat model holds %#x", what, d, i, got[i], f.banks[d][i])
		}
	}
}

// randomAccess picks an access [off, off+n) inside a bank of mram bytes:
// within one chunk, whole chunks, across a chunk boundary, or anywhere.
func randomAccess(rng *rand.Rand, mram int64) (int64, int) {
	const c = chunkBytes
	var off, n int64
	switch rng.Intn(4) {
	case 0: // inside one chunk
		off = rng.Int63n(mram)
		n = 1 + rng.Int63n(min(4096, c-off%c))
	case 1: // whole chunks
		off = c * rng.Int63n(mram/c)
		n = c * (1 + rng.Int63n((mram-off)/c))
	case 2: // across a chunk boundary
		off = c*(1+rng.Int63n(mram/c)) - 1 - rng.Int63n(3000)
		n = 2 + rng.Int63n(3000) + (c*(off/c+1) - off)
	default:
		off = rng.Int63n(mram)
		n = 1 + rng.Int63n(mram-off)
	}
	return off, int(min(n, mram-off))
}

// randomTargets picks a WriteDPUs list: one DPU, a subset, every DPU, or a
// subset that lists one DPU twice.
func randomTargets(rng *rand.Rand, dpus int) []int {
	perm := rng.Perm(dpus)
	switch rng.Intn(4) {
	case 0:
		return perm[:1]
	case 1:
		return perm[:1+rng.Intn(dpus)]
	case 2:
		return perm
	default:
		list := perm[:1+rng.Intn(dpus)]
		return append(list, list[rng.Intn(len(list))])
	}
}

// TestRankBanksMatchFlatModel runs seeded random sequences of WriteDPU,
// WriteDPUs, Checkpoint, Restore (of any earlier snapshot, onto either of
// two ranks) and Reset. After every step each DPU must read equal to a flat
// per-DPU model, and every checkpoint and restore must charge the chunks
// the interleaved layout would have committed.
func TestRankBanksMatchFlatModel(t *testing.T) {
	const mram = 2*chunkBytes + 8<<10 // a partial last chunk
	model := cost.Default()
	for _, dpus := range []int{1, 7, 33, 60} {
		t.Run(fmt.Sprintf("%d DPUs", dpus), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(dpus)))
			ranks := []*Rank{testRank(t, dpus, mram), testRank(t, dpus, mram)}
			flats := []*flatRank{newFlatRank(dpus, mram), newFlatRank(dpus, mram)}
			type snapshot struct {
				snap *Snapshot
				flat *flatRank
			}
			var snaps []snapshot
			checkCharge := func(what string, got time.Duration, want int64) {
				t.Helper()
				if w := model.CopyDuration(cost.EngineC, want); got != w {
					t.Fatalf("%s charged %v, want %v for %d committed bytes", what, got, w, want)
				}
			}
			data := make([]byte, mram)
			for step := 0; step < 150; step++ {
				ri := 0
				if rng.Intn(4) == 0 {
					ri = 1
				}
				r, f := ranks[ri], flats[ri]
				var what string
				switch op := rng.Intn(10); {
				case op < 3:
					d := rng.Intn(dpus)
					off, n := randomAccess(rng, mram)
					rng.Read(data[:n])
					what = fmt.Sprintf("WriteDPU(%d, %d, %d bytes)", d, off, n)
					if err := r.WriteDPU(d, off, data[:n]); err != nil {
						t.Fatal(err)
					}
					f.write(d, off, data[:n])
				case op < 7:
					list := randomTargets(rng, dpus)
					off, n := randomAccess(rng, mram)
					rng.Read(data[:n])
					what = fmt.Sprintf("WriteDPUs(%v, %d, %d bytes)", list, off, n)
					if err := r.WriteDPUs(list, off, data[:n]); err != nil {
						t.Fatal(err)
					}
					for _, d := range list {
						f.write(d, off, data[:n])
					}
				case op < 8:
					what = "Checkpoint"
					snap, dur, err := r.Checkpoint()
					if err != nil {
						t.Fatal(err)
					}
					if got, want := snap.CommittedBytes(), f.committedBytes(); got != want {
						t.Fatalf("step %d: CommittedBytes = %d, the interleaved layout commits %d", step, got, want)
					}
					checkCharge(what, dur, f.committedBytes())
					snaps = append(snaps, snapshot{snap, f.clone()})
				case op < 9 && len(snaps) > 0:
					s := snaps[rng.Intn(len(snaps))]
					what = "Restore"
					dur, err := r.Restore(s.snap)
					if err != nil {
						t.Fatal(err)
					}
					checkCharge(what, dur, s.flat.committedBytes())
					flats[ri] = s.flat.clone()
					f = flats[ri]
				default:
					what = "Reset"
					r.Reset()
					flats[ri] = newFlatRank(dpus, mram)
					f = flats[ri]
				}
				f.check(t, fmt.Sprintf("step %d rank %d after %s", step, ri, what), r)
			}
			// Every snapshot still holds what it captured: restore each
			// twice, once onto each rank.
			for i, s := range snaps {
				for ri, r := range ranks {
					for range 2 {
						if _, err := r.Restore(s.snap); err != nil {
							t.Fatal(err)
						}
						s.flat.check(t, fmt.Sprintf("snapshot %d restored onto rank %d", i, ri), r)
					}
				}
				if got, want := s.snap.CommittedBytes(), s.flat.committedBytes(); got != want {
					t.Fatalf("snapshot %d: CommittedBytes = %d, want %d", i, got, want)
				}
			}
		})
	}
}

// TestFootprintFollowsInterleave pins the footprint where two DPUs' blocks
// part ways: on a 60-DPU rank, block 8 of DPU 0 is physical block 480, in
// the first 1 MiB chunk, and block 8 of DPU 59 is physical block 539, in
// the second. Every DPU a write reaches marks its own chunk.
func TestFootprintFollowsInterleave(t *testing.T) {
	const block8 = 8 * MaxDMABytes
	for _, tc := range []struct {
		name  string
		write func(r *Rank) error
		want  uint64
	}{
		{"WriteDPU(0)", func(r *Rank) error { return r.WriteDPU(0, block8, []byte{1}) }, 0b01},
		{"WriteDPU(59)", func(r *Rank) error { return r.WriteDPU(59, block8, []byte{1}) }, 0b10},
		{"WriteDPUs(0, 59)", func(r *Rank) error { return r.WriteDPUs([]int{0, 59}, block8, []byte{1}) }, 0b11},
		{"WriteDPUs(59, 0)", func(r *Rank) error { return r.WriteDPUs([]int{59, 0}, block8, []byte{1}) }, 0b11},
	} {
		r := testRank(t, 60, chunkBytes)
		if err := tc.write(r); err != nil {
			t.Fatal(err)
		}
		if got := r.footprint[0].Load(); got != tc.want {
			t.Errorf("%s: footprint %#b, want %#b", tc.name, got, tc.want)
		}
	}
}

// TestWriteDPUsStoresOnce: one 256 KiB WriteDPUs to 60 DPUs stores the
// payload once, and a later write to one DPU leaves the other 59 intact.
func TestWriteDPUsStoresOnce(t *testing.T) {
	const dpus, size = 60, 256 << 10
	r := testRank(t, dpus, 8<<20)
	src := make([]byte, size)
	rand.New(rand.NewSource(1)).Read(src)
	all := make([]int, dpus)
	for d := range all {
		all[d] = d
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := r.WriteDPUs(all, 0, src); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 512<<10 {
		t.Errorf("WriteDPUs of %d KiB to %d DPUs allocated %d KiB, want < 512", size>>10, dpus, grew>>10)
	}
	if err := r.WriteDPU(17, 0, []byte("8 bytes!")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, size)
	for d := range all {
		if err := r.ReadDPU(d, 0, got); err != nil {
			t.Fatal(err)
		}
		want := src
		if d == 17 {
			want = append([]byte("8 bytes!"), src[8:]...)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("dpu %d does not read what was written to it", d)
		}
	}
}
