package backend

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// setProcs runs the rest of the test at GOMAXPROCS n, the data path's host
// parallelism, and restores the previous value when the test ends.
func setProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestRunRowsCoversAllRows: every index is visited exactly once, sequential
// and parallel alike.
func TestRunRowsCoversAllRows(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		setProcs(t, workers)
		const n = 100
		var hits [n]atomic.Int32
		if err := runRows(n, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Errorf("workers=%d: row %d visited %d times", workers, i, got)
			}
		}
	}
}

// TestRunRowsLowestIndexError: when several rows fail, the reported error is
// the one the sequential walk would have hit first, regardless of which
// shard finished when.
func TestRunRowsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		setProcs(t, workers)
		rowErr := func(i int) error { return fmt.Errorf("row %d failed", i) }
		err := runRows(64, func(i int) error {
			if i == 7 || i == 3 || i == 50 {
				return rowErr(i)
			}
			return nil
		})
		if err == nil || err.Error() != "row 3 failed" {
			t.Errorf("workers=%d: err = %v, want the lowest-index failure (row 3)", workers, err)
		}
	}
}

// TestRunRowsSequentialStopsEarly: the sequential path must keep the
// original early-return contract — rows after the first failure never run.
func TestRunRowsSequentialStopsEarly(t *testing.T) {
	setProcs(t, 1)
	var ran atomic.Int32
	sentinel := errors.New("boom")
	err := runRows(10, func(i int) error {
		ran.Add(1)
		if i == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if got := ran.Load(); got != 3 {
		t.Errorf("sequential walk ran %d rows after failure at row 2, want 3", got)
	}
}

// TestSharedPoolNestedSubmission: a row running on the pool can itself call
// runRows without deadlocking (shards that find no idle worker run inline)
// — the rank-fanout-over-row-pool nesting the VMM produces.
func TestSharedPoolNestedSubmission(t *testing.T) {
	setProcs(t, 4)
	var total atomic.Int32
	err := runRows(32, func(outer int) error {
		return runRows(8, func(inner int) error {
			total.Add(1)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := total.Load(); got != 32*8 {
		t.Errorf("nested pool runs executed %d rows, want %d", got, 32*8)
	}
}

// TestRowPoolAllocsPerRequest: a multi-row request allocates at most its
// rowCall. testing.AllocsPerRun would pin GOMAXPROCS to 1 and so take the
// sequential path; this counts heap objects around many two-shard requests
// at GOMAXPROCS 2 instead.
func TestRowPoolAllocsPerRequest(t *testing.T) {
	setProcs(t, 2)
	fn := func(int) error { return nil }
	if err := runRows(2, fn); err != nil { // starts the pool
		t.Fatal(err)
	}
	const calls = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if err := runRows(2, fn); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	// The count is process-wide: allow the few objects the runtime's own
	// goroutines allocate over the loop (up to ten per thousand requests on
	// a 2-CPU host), not a second object per request.
	if got := after.Mallocs - before.Mallocs; got > calls+calls/10 {
		t.Errorf("%d requests allocated %d objects, want at most one each", calls, got)
	}
}
