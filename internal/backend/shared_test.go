package backend

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/hostmem"
	"repro/internal/simtime"
	"repro/internal/virtio"
)

// sharedChain builds a write chain that pushes one page list to every
// listed DPU: a matrix of one row per DPU or, with bcast, one payload row
// whose targets the header's DPU mask names.
func sharedChain(t *testing.T, mem *hostmem.Memory, bcast bool, dpus []int, size, firstOff int, mramOff int64, pages []uint64) *virtio.Chain {
	t.Helper()
	put := func(src []byte) virtio.Desc {
		buf, err := mem.Alloc(len(src))
		if err != nil {
			t.Fatal(err)
		}
		copy(buf.Data, src)
		return virtio.Desc{GPA: buf.GPA, Len: uint32(len(src))}
	}
	words := func(vals ...uint64) []byte {
		buf := make([]byte, 8*len(vals))
		if err := virtio.PutU64s(buf, vals); err != nil {
			t.Fatal(err)
		}
		return buf
	}
	req := virtio.Request{Op: virtio.OpWriteRank, Length: uint64(size)}
	rows := dpus
	if bcast {
		req.Op, req.DPUMask = virtio.OpWriteRankBcast, maskOf(dpus...)
		rows = dpus[:1]
	}
	descs := []virtio.Desc{put(words(uint64(len(rows))))}
	for _, d := range rows {
		descs = append(descs,
			put(words(uint64(d), uint64(size), uint64(mramOff), uint64(len(pages)), uint64(firstOff))),
			put(words(pages...)))
	}
	return buildChain(t, mem, req, descs)
}

// TestSharedWriteFollowsPageList pushes one source to three of four DPUs,
// through the matrix and a broadcast, with page lists that are
// one allocation's consecutive pages, consecutive pages that cross into the
// next allocation, and one allocation's pages with two swapped and one
// listed twice. Every target must read the bytes in page-list order, across
// partial and whole MRAM chunks, and the fourth DPU must stay zero.
func TestSharedWriteFollowsPageList(t *testing.T) {
	const pageSize = hostmem.PageSize
	for _, tc := range []struct {
		name  string
		pages func(a, b hostmem.Buffer) []uint64
	}{
		{"consecutive", func(a, _ hostmem.Buffer) []uint64 { return a.Pages() }},
		{"across allocations", func(a, b hostmem.Buffer) []uint64 {
			pages := a.Pages()[len(a.Pages())-20:]
			return append(pages, b.Pages()[:20]...)
		}},
		{"out of order", func(a, _ hostmem.Buffer) []uint64 {
			pages := a.Pages()[:39]
			pages[10], pages[11] = pages[11], pages[10]
			return append(pages, pages[3])
		}},
	} {
		for _, bcast := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s bcast=%v", tc.name, bcast), func(t *testing.T) {
				b, mem := testBackend(t, true)
				rng := rand.New(rand.NewSource(1))
				alloc := func() hostmem.Buffer {
					buf, err := mem.Alloc(40 * pageSize)
					if err != nil {
						t.Fatal(err)
					}
					rng.Read(buf.Data)
					return buf
				}
				a := alloc()
				pages := tc.pages(a, alloc())
				const firstOff, mramOff = 100, 60 << 10
				size := len(pages)*pageSize - firstOff - 200
				want := make([]byte, 0, size)
				for i, gpa := range pages {
					host, err := mem.Slice(gpa, pageSize)
					if err != nil {
						t.Fatal(err)
					}
					if i == 0 {
						host = host[firstOff:]
					}
					want = append(want, host[:min(len(host), size-len(want))]...)
				}
				dpus := []int{3, 0, 1}
				chain := sharedChain(t, mem, bcast, dpus, size, firstOff, mramOff, pages)
				if err := handle(b, chain, simtime.New()); err != nil {
					t.Fatal(err)
				}
				got := make([]byte, size)
				for d := 0; d < 4; d++ {
					if err := b.rank.ReadDPU(d, mramOff, got); err != nil {
						t.Fatal(err)
					}
					if d == 2 {
						if !bytes.Equal(got, make([]byte, size)) {
							t.Errorf("untargeted dpu 2 was written")
						}
					} else if !bytes.Equal(got, want) {
						t.Errorf("dpu %d does not read the pages in list order", d)
					}
				}
			})
		}
	}
}
