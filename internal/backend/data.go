package backend

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/hostmem"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/virtio"
)

// ErrBadDescriptor reports a transfer-matrix chain whose guest-controlled
// metadata is malformed (inconsistent row geometry, out-of-range offsets).
// The device rejects the request cleanly; a hostile guest must never be able
// to panic or OOM the VMM.
var ErrBadDescriptor = errors.New("backend: malformed transfer descriptor")

// row is one deserialized transfer-matrix row.
type row struct {
	dpu      int
	size     int
	mramOff  int64
	pages    []uint64
	firstOff int
}

// deserScratch is the pooled per-request decode state: the row slice, the
// per-row page-count hand-off between the two decode passes, and the page
// arena every row's pages sub-slice points into. Pooling it keeps the
// per-request hot path free of allocations whose size the guest controls.
type deserScratch struct {
	rows  []row
	np    []int
	pages []uint64
}

var deserPool = sync.Pool{New: func() any { return &deserScratch{} }}

// release returns the scratch to the pool. The page sub-slices alias the
// arena, so rows are truncated first to drop them.
func (s *deserScratch) release() {
	if s == nil {
		return
	}
	for i := range s.rows {
		s.rows[i].pages = nil
	}
	s.rows = s.rows[:0]
	s.np = s.np[:0]
	s.pages = s.pages[:0]
	deserPool.Put(s)
}

// handleData executes a write-to-rank, read-from-rank or broadcast write:
// deserialize the matrix, translate guest pages, then move the data with the
// configured copy engine, 8 DPUs at a time. A broadcast chain has the shape
// of a one-row write matrix, and its header's DPU mask names the DPUs the
// row is written to.
func (b *Backend) handleData(req virtio.Request, chain *virtio.Chain, tl *simtime.Timeline) error {
	// Note: the driver-centric operation category (op:W-rank / op:R-rank)
	// is recorded by the frontend, whose span covers this handler; charging
	// it here as well would double count.
	descs := chain.Descs
	if len(descs) < 3 {
		return fmt.Errorf("backend: matrix chain of %d descriptors", len(descs))
	}
	sc, _, err := b.deserializeRows(descs[1:len(descs)-1], tl)
	if err != nil {
		return err
	}
	defer sc.release()
	var targets []int
	if req.Op == virtio.OpWriteRankBcast {
		if targets, err = b.bcastTargets(req.DPUMask, len(sc.rows)); err != nil {
			return err
		}
		tl.Charge(trace.StepDeser, b.model.BcastFanout*simtime.Duration(len(targets)))
	}
	rankStart := tl.Now()
	tl.Span(trace.StepTData, func(tl *simtime.Timeline) {
		switch {
		case targets != nil:
			err = b.copyBcast(sc.rows[0], targets, tl)
		case req.Op == virtio.OpWriteRank && req.Offset == virtio.BatchSentinel:
			err = b.applyBatch(sc.rows, tl)
		default:
			err = b.copyRows(req.Op, sc.rows, tl)
		}
	})
	if err == nil && b.rec.Enabled() {
		b.rec.Record(obs.Event{
			Name: "rank:" + req.Op.String(), Cat: "rank", TID: obs.LaneRank,
			Req: chain.ReqID, Start: rankStart, Dur: tl.Now() - rankStart,
		})
	}
	return err
}

// bcastTargets lists, in ascending order, the DPUs a broadcast's mask
// names. A broadcast must carry exactly one row and name at least one DPU
// and none past the attached rank; anything else is rejected before any
// byte moves.
func (b *Backend) bcastTargets(mask uint64, rows int) ([]int, error) {
	if rows != 1 {
		return nil, fmt.Errorf("%w: broadcast carries %d payload rows, want 1", ErrBadDescriptor, rows)
	}
	if mask == 0 {
		return nil, fmt.Errorf("%w: broadcast names no DPU", ErrBadDescriptor)
	}
	if n := b.rank.NumDPUs(); mask>>uint(n) != 0 {
		return nil, fmt.Errorf("%w: broadcast mask %#x names a DPU outside rank of %d", ErrBadDescriptor, mask, n)
	}
	return maskDPUs(mask), nil
}

// maskDPUs lists, in ascending order, the DPUs a request header's DPU mask
// names (bit i = DPU i).
func maskDPUs(mask uint64) []int {
	dpus := make([]int, 0, bits.OnesCount64(mask))
	for m := mask; m != 0; m &= m - 1 {
		dpus = append(dpus, bits.TrailingZeros64(m))
	}
	return dpus
}

// deserializeRows reassembles the transfer matrix from the chain's body
// descriptors (Fig. 7 layout: body[0] is the matrix metadata, followed by a
// row-metadata/page-buffer pair per row) and charges the per-DPU
// deserialization plus the multi-threaded GPA->HVA translation (Fig. 13
// "Deser"). Every guest-controlled field is validated before use: the row
// count against the chain shape, the page count against the page buffer that
// must hold it (a huge count would otherwise OOM the arena below), and the
// first-page offset and size against the page geometry (an offset past the
// page end would otherwise drive the segment walk out of bounds). The
// returned scratch is pooled; the caller must release() it when done with
// the rows.
func (b *Backend) deserializeRows(body []virtio.Desc, tl *simtime.Timeline) (*deserScratch, int, error) {
	if len(body) < 1 {
		return nil, 0, fmt.Errorf("backend: matrix body of %d descriptors", len(body))
	}
	metaBuf, err := b.mem.Slice(body[0].GPA, int(body[0].Len))
	if err != nil {
		return nil, 0, fmt.Errorf("matrix metadata: %w", err)
	}
	nRows64, err := virtio.GetU64(metaBuf, 0)
	if err != nil {
		return nil, 0, err
	}
	if nRows64 > uint64(len(body)) {
		return nil, 0, fmt.Errorf("%w: %d rows exceed %d descriptors", ErrBadDescriptor, nRows64, len(body))
	}
	nRows := int(nRows64)
	if len(body) != 1+2*nRows {
		return nil, 0, fmt.Errorf("backend: %d rows but %d body descriptors", nRows, len(body))
	}

	sc := deserPool.Get().(*deserScratch)
	fail := func(err error) (*deserScratch, int, error) {
		sc.release()
		return nil, 0, err
	}
	if cap(sc.rows) < nRows {
		sc.rows = make([]row, nRows)
	} else {
		sc.rows = sc.rows[:nRows]
	}
	if cap(sc.np) < nRows {
		sc.np = make([]int, nRows)
	} else {
		sc.np = sc.np[:nRows]
	}

	// Pass 1: parse and validate the metadata, summing the page total so the
	// arena is sized once (appending per row would move the backing array out
	// from under earlier rows' sub-slices).
	totalPages := 0
	for i := 0; i < nRows; i++ {
		dm := body[1+2*i]
		pm := body[2+2*i]
		dmBuf, err := b.mem.Slice(dm.GPA, int(dm.Len))
		if err != nil {
			return fail(fmt.Errorf("row %d metadata: %w", i, err))
		}
		var vals [virtio.DPUMetaWords]uint64
		for w := range vals {
			if vals[w], err = virtio.GetU64(dmBuf, w); err != nil {
				return fail(err)
			}
		}
		nPages := vals[3]
		if maxPages := uint64(pm.Len) / 8; nPages > maxPages {
			return fail(fmt.Errorf("%w: row %d claims %d pages but its page buffer holds %d",
				ErrBadDescriptor, i, nPages, maxPages))
		}
		size, firstOff := vals[1], vals[4]
		if firstOff >= hostmem.PageSize {
			return fail(fmt.Errorf("%w: row %d first-page offset %d >= page size %d",
				ErrBadDescriptor, i, firstOff, hostmem.PageSize))
		}
		// The listed pages must cover [firstOff, firstOff+size); computed
		// subtraction-side to stay overflow-free under hostile sizes.
		if capacity := nPages * hostmem.PageSize; size > 0 && (nPages == 0 || size > capacity-firstOff) {
			return fail(fmt.Errorf("%w: row %d size %d does not fit %d pages at offset %d",
				ErrBadDescriptor, i, size, nPages, firstOff))
		}
		sc.rows[i] = row{
			dpu:      int(vals[0]),
			size:     int(size),
			mramOff:  int64(vals[2]),
			firstOff: int(firstOff),
		}
		sc.np[i] = int(nPages)
		totalPages += int(nPages)
	}

	// Pass 2: fill the page arena and hand each row its sub-slice.
	if cap(sc.pages) < totalPages {
		sc.pages = make([]uint64, totalPages)
	} else {
		sc.pages = sc.pages[:totalPages]
	}
	used := 0
	for i := 0; i < nRows; i++ {
		pm := body[2+2*i]
		pmBuf, err := b.mem.Slice(pm.GPA, int(pm.Len))
		if err != nil {
			return fail(fmt.Errorf("row %d pages: %w", i, err))
		}
		pages := sc.pages[used : used+sc.np[i]]
		for p := range pages {
			if pages[p], err = virtio.GetU64(pmBuf, p); err != nil {
				return fail(err)
			}
		}
		sc.rows[i].pages = pages
		used += sc.np[i]
	}

	b.cRows.Add(int64(nRows))
	b.cPages.Add(int64(totalPages))
	tl.Span(trace.StepDeser, func(tl *simtime.Timeline) {
		tl.Advance(b.model.DeserializeDPU * simtime.Duration(nRows))
		// GPA->HVA translation parallelized across the translation workers.
		tl.Workers(totalPages, b.model.TranslateThreads, b.model.TranslatePage)
	})
	return sc, totalPages, nil
}

// consultTranslate replays the translate fault hook over one row's pages in
// the deterministic order the sequential segment walk uses.
func (b *Backend) consultTranslate(r row) error {
	if b.fault == nil || b.fault.FailTranslate == nil {
		return nil
	}
	remaining := r.size
	pageOff := r.firstOff
	for _, gpa := range r.pages {
		if remaining <= 0 {
			break
		}
		if b.fault.FailTranslate(gpa) {
			return fmt.Errorf("backend: injected translate fault at gpa %#x (dpu %d)", gpa, r.dpu)
		}
		seg := hostmem.PageSize - pageOff
		if seg > remaining {
			seg = remaining
		}
		remaining -= seg
		pageOff = 0
	}
	return nil
}

// consultFaults replays the data path's injected fault hooks in the
// deterministic row-major page order the sequential implementation used.
// The hooks are stateful countdowns in chaos runs, so they must never be
// consulted from concurrent workers; pulling the consultation into this
// sequential prologue is what lets the byte movement itself parallelize
// without perturbing a seeded fault plan.
func (b *Backend) consultFaults(rows []row) error {
	if b.fault == nil {
		return nil
	}
	for _, r := range rows {
		if b.fault.FailCopy != nil && b.fault.FailCopy(r.dpu) {
			return fmt.Errorf("backend: injected copy fault on dpu %d", r.dpu)
		}
		if err := b.consultTranslate(r); err != nil {
			return err
		}
	}
	return nil
}

// forEachSegment walks a row's guest pages, translating each and yielding
// the host slice of each in-row segment along with the running MRAM offset.
// Deserialization has validated the row geometry, so the walk stays in
// bounds; fault hooks were consulted by consultFaults, keeping this function
// safe to run on concurrent pool workers.
func (b *Backend) forEachSegment(r row, fn func(host []byte, mramOff int64) error) error {
	remaining := r.size
	written := 0
	pageOff := r.firstOff
	for _, gpa := range r.pages {
		if remaining <= 0 {
			break
		}
		host, err := b.mem.Translate(gpa)
		if err != nil {
			return err
		}
		seg := hostmem.PageSize - pageOff
		if seg > remaining {
			seg = remaining
		}
		if err := fn(host[pageOff:pageOff+seg], r.mramOff+int64(written)); err != nil {
			return err
		}
		written += seg
		remaining -= seg
		pageOff = 0
	}
	if remaining != 0 {
		return fmt.Errorf("backend: row for dpu %d short by %d bytes", r.dpu, remaining)
	}
	return nil
}

// writeShared stores one row's guest bytes onto every listed DPU with
// Rank.WriteDPUs, so the rank stores them once. When the row's pages are
// consecutive pages of one guest allocation, as the pages of every buffer
// the guest SDK allocates are, the row is one host slice and one WriteDPUs;
// otherwise each segment of the page walk is one WriteDPUs.
func (b *Backend) writeShared(r row, dpus []int) error {
	if r.size == 0 {
		return nil
	}
	// Deserialization checked that the pages cover the row.
	pages := r.pages[:(r.firstOff+r.size+hostmem.PageSize-1)/hostmem.PageSize]
	contiguous := pages[0]%hostmem.PageSize == 0
	for i := 1; contiguous && i < len(pages); i++ {
		contiguous = pages[i] == pages[0]+uint64(i)*hostmem.PageSize
	}
	if contiguous {
		if host, err := b.mem.Slice(pages[0], len(pages)*hostmem.PageSize); err == nil {
			return b.rank.WriteDPUs(dpus, r.mramOff, host[r.firstOff:r.firstOff+r.size])
		}
	}
	return b.forEachSegment(r, func(host []byte, mramOff int64) error {
		return b.rank.WriteDPUs(dpus, mramOff, host)
	})
}

// sameSource reports whether every row writes the same guest bytes to the
// same MRAM offset, as a push of one buffer to many DPUs does, and lists
// the rows' DPUs.
func sameSource(rows []row) ([]int, bool) {
	if len(rows) < 2 {
		return nil, false
	}
	first := rows[0]
	dpus := make([]int, len(rows))
	for i, r := range rows {
		if r.size != first.size || r.mramOff != first.mramOff || r.firstOff != first.firstOff ||
			!slices.Equal(r.pages, first.pages) {
			return nil, false
		}
		dpus[i] = r.dpu
	}
	return dpus, true
}

// copyRows moves each row between guest pages and MRAM. The virtual
// duration models the backend's 8 operation threads (one PIM chip at a
// time); the actual translation and byte movement shards across the host
// worker pool — rows address disjoint DPUs, whose MRAM ranges never
// overlap, so the copies commute and the result is bit-identical to the
// sequential walk. Write rows that all carry the same guest bytes are
// stored once (writeShared).
func (b *Backend) copyRows(op virtio.Op, rows []row, tl *simtime.Timeline) error {
	if err := b.consultFaults(rows); err != nil {
		return err
	}
	var err error
	if dpus, ok := sameSource(rows); ok && op == virtio.OpWriteRank {
		err = b.writeShared(rows[0], dpus)
	} else {
		err = runRows(len(rows), func(i int) error {
			r := rows[i]
			if op == virtio.OpWriteRank {
				return b.forEachSegment(r, func(host []byte, mramOff int64) error {
					return b.rank.WriteDPU(r.dpu, mramOff, host)
				})
			}
			return b.forEachSegment(r, func(host []byte, mramOff int64) error {
				return b.rank.ReadDPU(r.dpu, mramOff, host)
			})
		})
	}
	if err != nil {
		return err
	}
	sizes := make([]int, len(rows))
	var total int64
	for i, r := range rows {
		sizes[i] = r.size
		total += int64(r.size)
	}
	b.cCopyBytes.Add(total)
	tl.Advance(b.model.RankOpDuration(b.engine, sizes))
	return nil
}

// copyBcast stores one row's guest bytes onto every target. The guest
// pages are translated once (the deduplication the broadcast wire shape
// exists for), and the rank stores the bytes once (writeShared). Fault
// hooks are consulted in a sequential prologue (targets in ascending DPU
// order, then the payload's page walk once) so seeded chaos plans replay
// deterministically.
func (b *Backend) copyBcast(r row, targets []int, tl *simtime.Timeline) error {
	if b.fault != nil {
		for _, d := range targets {
			if b.fault.FailCopy != nil && b.fault.FailCopy(d) {
				return fmt.Errorf("backend: injected copy fault on dpu %d", d)
			}
		}
		if err := b.consultTranslate(r); err != nil {
			return err
		}
	}
	if err := b.writeShared(r, targets); err != nil {
		return err
	}
	// The rank-side byte movement is honest: every replica pays its full
	// share of RankOpDuration, exactly as the per-DPU path would.
	sizes := make([]int, len(targets))
	for i := range sizes {
		sizes[i] = r.size
	}
	b.cCopyBytes.Add(int64(r.size) * int64(len(targets)))
	b.cBcastFanout.Add(int64(len(targets)))
	tl.Advance(b.model.RankOpDuration(b.engine, sizes))
	return nil
}

// batchBufPool recycles the per-row batch reassembly buffers (worker-local:
// each pool shard gets and puts its own).
var batchBufPool = sync.Pool{New: func() any {
	buf := make([]byte, 0, hostmem.PageSize)
	return &buf
}}

// applyRecords parses one reassembled batch region's packed records
// ([mramOff, len, data] repeated) and applies them to the row's DPU.
func (b *Backend) applyRecords(r row, buf []byte, bytes, records *int64) error {
	for pos := 0; pos+16 <= len(buf); {
		mramOff := int64(binary.LittleEndian.Uint64(buf[pos:]))
		length := int(binary.LittleEndian.Uint64(buf[pos+8:]))
		pos += 16
		if length < 0 || pos+length > len(buf) {
			return fmt.Errorf("backend: batch record overruns buffer (dpu %d)", r.dpu)
		}
		if err := b.rank.WriteDPU(r.dpu, mramOff, buf[pos:pos+length]); err != nil {
			return err
		}
		*bytes += int64(length)
		*records++
		pos += (length + 7) &^ 7
	}
	return nil
}

// applyBatch parses each row's packed records and applies them. Rows shard
// across the host worker pool like regular copies; within a row, records
// apply in order (later records may overwrite earlier ones), and rows target
// distinct DPUs, so parallel rows commute. A row whose region is a single
// contiguous segment is parsed straight from the guest page, skipping the
// reassembly copy; multi-segment rows reassemble into a pooled buffer.
func (b *Backend) applyBatch(rows []row, tl *simtime.Timeline) error {
	if err := b.consultFaults(rows); err != nil {
		return err
	}
	rowBytes := make([]int64, len(rows))
	rowRecords := make([]int64, len(rows))
	err := runRows(len(rows), func(i int) error {
		r := rows[i]
		if r.size > 0 && r.firstOff+r.size <= hostmem.PageSize {
			host, err := b.mem.Translate(r.pages[0])
			if err != nil {
				return err
			}
			return b.applyRecords(r, host[r.firstOff:r.firstOff+r.size], &rowBytes[i], &rowRecords[i])
		}
		pooled := batchBufPool.Get().(*[]byte)
		buf := (*pooled)[:0]
		err := b.forEachSegment(r, func(host []byte, _ int64) error {
			buf = append(buf, host...)
			return nil
		})
		if err == nil {
			err = b.applyRecords(r, buf, &rowBytes[i], &rowRecords[i])
		}
		*pooled = buf[:0]
		batchBufPool.Put(pooled)
		return err
	})
	if err != nil {
		return err
	}
	var dataBytes, records int64
	for i := range rows {
		dataBytes += rowBytes[i]
		records += rowRecords[i]
	}
	b.cCopyBytes.Add(dataBytes)
	b.cBatchRecords.Add(records)
	// Records spread across the operation threads like regular rows.
	threads := int64(b.model.OpThreads)
	if threads < 1 {
		threads = 1
	}
	perThreadRecords := (records + threads - 1) / threads
	tl.Advance(simtime.Duration(perThreadRecords)*b.model.BatchRecord +
		b.model.CopyDuration(b.engine, (dataBytes+threads-1)/threads))
	return nil
}
