package backend

import (
	"runtime"
	"sync"
)

// hostPool is the process-wide persistent worker pool backing the data
// path's real host concurrency: every Backend shards its rows over it, so
// booting many short-lived VMs (the conformance matrix boots hundreds) does
// not leak per-VM goroutines. Workers park on an unbuffered channel; a
// submission that finds no idle worker runs inline on the submitting
// goroutine, which also makes nested submissions (rank fan-out goroutines
// sharding their own rows) deadlock-free.
type hostPool struct {
	jobs chan func()
}

var sharedPoolState struct {
	once sync.Once
	p    *hostPool
}

// minPoolWorkers keeps a few workers alive even when the pool starts at
// GOMAXPROCS 1 (a single-CPU host), so a process that raises GOMAXPROCS
// later — the host-worker twins run the data path at 1 and at 4 — still
// spreads its shards over real goroutines.
const minPoolWorkers = 4

// sharedPool lazily starts the process-wide pool.
func sharedPool() *hostPool {
	sharedPoolState.once.Do(func() {
		n := runtime.GOMAXPROCS(0)
		if n < minPoolWorkers {
			n = minPoolWorkers
		}
		p := &hostPool{jobs: make(chan func())}
		for i := 0; i < n; i++ {
			go p.worker()
		}
		sharedPoolState.p = p
	})
	return sharedPoolState.p
}

func (p *hostPool) worker() {
	for job := range p.jobs {
		job()
	}
}

// run executes fn(shard) for every shard in [0, n) concurrently and waits
// for all of them. Shards beyond the pool's idle capacity run inline.
func (p *hostPool) run(n int, fn func(shard int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		i := i
		job := func() {
			defer wg.Done()
			fn(i)
		}
		select {
		case p.jobs <- job:
		default:
			job()
		}
	}
	wg.Wait()
}

// runRows applies fn to every row index in [0, n), sharding across
// GOMAXPROCS pool workers. Errors are collected per index and the
// lowest-index error is returned — the same error the sequential walk would
// surface — so parallel execution never changes which failure a request
// reports. A shard stops at its first error (like the sequential walk stops
// the request), but other shards complete their already-started rows.
func runRows(n int, fn func(i int) error) error {
	shards := min(runtime.GOMAXPROCS(0), n)
	if shards <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	sharedPool().run(shards, func(shard int) {
		for i := shard; i < n; i += shards {
			if errs[i] = fn(i); errs[i] != nil {
				return
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
