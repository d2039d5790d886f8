package backend

import (
	"runtime"
	"sync"
)

// rowPool is the process-wide persistent worker pool backing the data
// path's real host concurrency: every Backend shards its rows over it, so
// booting many short-lived VMs (the conformance matrix boots hundreds) does
// not leak per-VM goroutines. Workers park on an unbuffered channel; a
// shard that finds no idle worker runs inline on the submitting goroutine,
// which also makes nested submissions (rank fan-out goroutines sharding
// their own rows) deadlock-free.
var rowPool struct {
	once sync.Once
	jobs chan rowShard
}

// minPoolWorkers keeps a few workers alive even when the pool starts at
// GOMAXPROCS 1 (a single-CPU host), so a process that raises GOMAXPROCS
// later — the host-worker twins run the data path at 1 and at 4 — still
// spreads its shards over real goroutines.
const minPoolWorkers = 4

// rowJobs lazily starts the pool and returns its job channel.
func rowJobs() chan<- rowShard {
	rowPool.once.Do(func() {
		rowPool.jobs = make(chan rowShard)
		n := max(runtime.GOMAXPROCS(0), minPoolWorkers)
		for i := 0; i < n; i++ {
			go func() {
				for j := range rowPool.jobs {
					j.call.run(j.shard)
				}
			}()
		}
	})
	return rowPool.jobs
}

// rowCall is one multi-row request in flight: its row function, its shard
// count, and the lowest-index error any shard has reported so far. A
// worker receives a value naming the call and a shard, not a closure, so a
// request allocates only its rowCall.
type rowCall struct {
	fn     func(i int) error
	n      int
	shards int
	wg     sync.WaitGroup
	mu     sync.Mutex
	errAt  int
	err    error
}

type rowShard struct {
	call  *rowCall
	shard int
}

// run walks rows shard, shard+shards, ... and stops at its first error.
func (c *rowCall) run(shard int) {
	defer c.wg.Done()
	for i := shard; i < c.n; i += c.shards {
		if err := c.fn(i); err != nil {
			c.mu.Lock()
			if i < c.errAt {
				c.errAt, c.err = i, err
			}
			c.mu.Unlock()
			return
		}
	}
}

// runRows applies fn to every row index in [0, n), sharding across
// GOMAXPROCS pool workers. It returns the lowest-index error — the same
// error the sequential walk would surface — so parallel execution never
// changes which failure a request reports. A shard stops at its first error
// (like the sequential walk stops the request), but other shards complete
// their already-started rows.
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
	c := &rowCall{fn: fn, n: n, shards: shards, errAt: n}
	c.wg.Add(shards)
	jobs := rowJobs()
	for s := 0; s < shards; s++ {
		select {
		case jobs <- rowShard{c, s}:
		default:
			c.run(s)
		}
	}
	c.wg.Wait()
	return c.err
}
