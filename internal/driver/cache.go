package driver

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/hostmem"
	"repro/internal/sdk"
	"repro/internal/simtime"
	"repro/internal/virtio"
)

// prefetchCache is the frontend's per-DPU read cache (Section 4.1 "Prefetch
// Cache"): 16 pages per DPU by default. A small read that hits is served
// from guest memory with no backend message; a miss repopulates the whole
// window starting at the requested address. The cache is invalidated by any
// write-to-rank, program launch/CI activity, or rank release.
type prefetchCache struct {
	bufs  []hostmem.Buffer
	start []int64
	// winLen is each DPU's valid window length: usually the full cache
	// size, but a fill near the end of MRAM is truncated, and bytes past
	// the fetched window hold stale data from older fills.
	winLen []int
	valid  []bool
	size   int
}

func newPrefetchCache(mem *hostmem.Memory, nDPUs, pages int) (*prefetchCache, error) {
	c := &prefetchCache{
		bufs:   make([]hostmem.Buffer, nDPUs),
		start:  make([]int64, nDPUs),
		winLen: make([]int, nDPUs),
		valid:  make([]bool, nDPUs),
		size:   pages * hostmem.PageSize,
	}
	for d := 0; d < nDPUs; d++ {
		buf, err := mem.Alloc(c.size)
		if err != nil {
			return nil, fmt.Errorf("alloc prefetch cache for dpu %d: %w", d, err)
		}
		c.bufs[d] = buf
	}
	return c, nil
}

// bytes reports the per-DPU cache window size.
func (c *prefetchCache) bytes() int { return c.size }

// invalidate drops every DPU's cached window. Nil-safe so call sites do not
// branch on whether the optimization is enabled.
func (c *prefetchCache) invalidate() {
	if c == nil {
		return
	}
	for d := range c.valid {
		c.valid[d] = false
	}
}

// hit reports whether [off, off+length) of DPU d lies inside the fetched
// window — the per-DPU winLen, not the full cache size, so a truncated fill
// near the MRAM end never serves its stale tail.
func (c *prefetchCache) hit(d int, off int64, length int) bool {
	return c.valid[d] && off >= c.start[d] && off+int64(length) <= c.start[d]+int64(c.winLen[d])
}

// readViaCache serves a small read: cache hits copy from guest memory; all
// missing DPUs are refilled with a single backend message fetching a full
// cache window per DPU starting at the requested address.
func (f *Frontend) readViaCache(entries []sdk.DPUXfer, off int64, length int, tl *simtime.Timeline) error {
	c := f.cache
	missRows := f.rowScratch[:0]
	for _, e := range entries {
		if e.DPU < 0 || e.DPU >= len(c.bufs) {
			return fmt.Errorf("driver: DPU %d outside cache of %d", e.DPU, len(c.bufs))
		}
		f.cCacheLookups.Inc()
		if c.hit(e.DPU, off, length) {
			f.cCacheHits.Inc()
			continue
		}
		fetch := int64(c.size)
		if off+fetch > f.MRAMBytes() {
			fetch = f.MRAMBytes() - off
		}
		if fetch < int64(length) {
			return fmt.Errorf("driver: read of %d at %d overruns MRAM", length, off)
		}
		missRows = append(missRows, matrixRow{
			dpu:     e.DPU,
			buf:     c.bufs[e.DPU],
			size:    int(fetch),
			mramOff: off,
		})
	}
	f.rowScratch = missRows[:0]
	// The refill (if any) is the synchronous request closing the window; a
	// fully cache-served read still drains it — reads are synchronization
	// points. (A hit also proves no staged chain touches this data: any
	// write since the last fill would have invalidated the cache.)
	if len(missRows) > 0 {
		req := virtio.Request{Op: virtio.OpReadRank, Offset: uint64(off), Length: uint64(c.size)}
		if err := f.postMatrix(f.sync, req, missRows, 0, tl); err != nil {
			return err
		}
	}
	if err := f.drain(f.tq, tl); err != nil {
		return err
	}
	for _, row := range missRows {
		c.start[row.dpu] = off
		c.winLen[row.dpu] = row.size
		c.valid[row.dpu] = true
		f.cCacheMisses.Inc()
	}
	// Serve every DPU from the cache window.
	for _, e := range entries {
		winOff := off - c.start[e.DPU]
		copy(e.Buf.Data[:length], c.bufs[e.DPU].Data[winOff:winOff+int64(length)])
		tl.Advance(f.model.CacheHit + f.model.CopyDuration(cost.EngineC, int64(length)))
	}
	return nil
}
