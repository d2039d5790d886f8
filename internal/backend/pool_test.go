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

// TestSharedPoolNestedSubmission: a job running on the pool can itself call
// run without deadlocking (oversubscribed submissions fall back inline) —
// the rank-fanout-over-row-pool nesting the VMM produces.
func TestSharedPoolNestedSubmission(t *testing.T) {
	p := sharedPool()
	var total atomic.Int32
	p.run(32, func(outer int) {
		p.run(8, func(inner int) {
			total.Add(1)
		})
	})
	if got := total.Load(); got != 32*8 {
		t.Errorf("nested pool runs executed %d jobs, want %d", got, 32*8)
	}
}
