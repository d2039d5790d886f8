package manager

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestAllocWaitsForRelease: the core fix. A blocked allocation succeeds when
// another goroutine releases a rank within the retry window — impossible
// before the FIFO waiter queue, when Alloc gave up without ever waiting.
func TestAllocWaitsForRelease(t *testing.T) {
	mgr := New(testMachine(t, 1), Options{Retries: 100, RetryTimeout: 10 * time.Millisecond, Backoff: 1})
	held, _, err := mgr.Alloc("holder")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(25 * time.Millisecond)
		if err := mgr.ReleaseOwned("holder", held); err != nil {
			t.Error(err)
		}
	}()
	start := time.Now()
	rank, latency, err := mgr.Alloc("waiter")
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("blocked alloc must be satisfied by the concurrent release: %v", err)
	}
	if rank != held {
		t.Error("waiter must receive the released rank")
	}
	if elapsed < 20*time.Millisecond {
		t.Errorf("alloc returned after %v: it never blocked", elapsed)
	}
	// The charged latency includes the slept poll intervals plus the reset
	// of the foreign NANA rank, on top of the 36ms round trip.
	if latency <= 36*time.Millisecond {
		t.Errorf("latency = %v: waiting and reset not charged", latency)
	}
}

// TestAllocFIFOOrder: waiters are granted strictly in arrival order.
func TestAllocFIFOOrder(t *testing.T) {
	mgr := New(testMachine(t, 1), Options{Retries: 1000, RetryTimeout: 2 * time.Millisecond, Backoff: 1})
	held, _, err := mgr.Alloc("holder")
	if err != nil {
		t.Fatal(err)
	}
	const K = 5
	order := make(chan int, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			owner := fmt.Sprintf("w%d", i)
			r, _, err := mgr.Alloc(owner)
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			order <- i
			if err := mgr.ReleaseOwned(owner, r); err != nil {
				t.Errorf("waiter %d release: %v", i, err)
			}
		}()
		// Confirm enqueue before starting the next waiter so the arrival
		// order is deterministic.
		waitFor(t, fmt.Sprintf("waiter %d queued", i), func() bool { return mgr.Waiters() == i+1 })
	}
	if err := mgr.ReleaseOwned("holder", held); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(order)
	want := 0
	for got := range order {
		if got != want {
			t.Fatalf("grant order: got waiter %d, want %d", got, want)
		}
		want++
	}
	if want != K {
		t.Fatalf("only %d of %d waiters were granted", want, K)
	}
}

// TestAllocReleaseStorm: many goroutine "VMs" hammer few ranks, with the
// observer resetting in the background. Run under -race; asserts no lost
// wakeups (every allocation eventually succeeds) and a consistent table.
func TestAllocReleaseStorm(t *testing.T) {
	const ranks, vms, iters = 4, 16, 8
	mgr := New(testMachine(t, ranks), Options{Retries: 5000, RetryTimeout: time.Millisecond, Backoff: 1})
	obs := mgr.StartObserver(time.Millisecond)
	defer obs.Stop()

	var wg sync.WaitGroup
	errs := make(chan error, vms)
	for v := 0; v < vms; v++ {
		owner := fmt.Sprintf("vm%d", v)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				r, _, err := mgr.Alloc(owner)
				if err != nil {
					errs <- fmt.Errorf("%s iter %d: %w", owner, it, err)
					return
				}
				if err := mgr.ReleaseOwned(owner, r); err != nil {
					errs <- fmt.Errorf("%s iter %d release: %w", owner, it, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := mgr.Allocations(); got != vms*iters {
		t.Errorf("allocations = %d, want %d", got, vms*iters)
	}
	if w := mgr.Waiters(); w != 0 {
		t.Errorf("%d waiters left after the storm", w)
	}
	for i, st := range mgr.States() {
		if st == StateALLO {
			t.Errorf("rank %d still ALLO after all VMs released", i)
		}
	}
}

// TestCloseWithWaitersPending: Close wakes parked waiters immediately with
// ErrClosed instead of letting them sleep out their retry budgets.
func TestCloseWithWaitersPending(t *testing.T) {
	mgr := New(testMachine(t, 1), Options{Retries: 1000, RetryTimeout: 50 * time.Millisecond, Backoff: 1})
	if _, _, err := mgr.Alloc("holder"); err != nil {
		t.Fatal(err)
	}
	const K = 3
	var wg sync.WaitGroup
	errCh := make(chan error, K)
	for i := 0; i < K; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := mgr.Alloc(fmt.Sprintf("w%d", i))
			errCh <- err
		}()
	}
	waitFor(t, "waiters parked", func() bool { return mgr.Waiters() == K })
	start := time.Now()
	mgr.Close()
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("close took %v: waiters did not unwind promptly", elapsed)
	}
	close(errCh)
	for err := range errCh {
		if !errors.Is(err, ErrClosed) {
			t.Errorf("waiter error = %v, want ErrClosed", err)
		}
	}
	if _, _, err := mgr.Alloc("late"); !errors.Is(err, ErrClosed) {
		t.Errorf("alloc after close = %v, want ErrClosed", err)
	}
}

// serveTestManager starts a server over a UNIX socket and returns the
// manager, the socket path and a shutdown func.
func serveTestManager(t *testing.T, ranks int, opts Options) (*Manager, string) {
	t.Helper()
	mgr := New(testMachine(t, ranks), opts)
	srv := NewServer(mgr)
	sock := filepath.Join(t.TempDir(), "mgr.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		mgr.Close()
		srv.Shutdown()
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	})
	return mgr, sock
}

// TestServerManyPersistentClients: an 8-thread pool serves 16 concurrent
// persistent clients without starvation, because the pool bounds in-flight
// requests, not connections (8 idle persistent clients used to deadlock the
// daemon), and parked allocations hand their slot back.
func TestServerManyPersistentClients(t *testing.T) {
	const ranks, clients, iters = 4, 16, 4
	mgr, sock := serveTestManager(t, ranks, Options{
		Threads: 8, Retries: 5000, RetryTimeout: time.Millisecond, Backoff: 1,
	})

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	conns := make([]*Client, clients)
	for i := range conns {
		c, err := Dial("unix", sock)
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
		defer c.Close()
	}
	for i, c := range conns {
		i, c := i, c
		wg.Add(1)
		go func() {
			defer wg.Done()
			owner := fmt.Sprintf("vm%d", i)
			for it := 0; it < iters; it++ {
				idx, _, err := c.Alloc(owner)
				if err != nil {
					errs <- fmt.Errorf("%s iter %d: %w", owner, it, err)
					return
				}
				if err := c.Release(owner, idx); err != nil {
					errs <- fmt.Errorf("%s iter %d release: %w", owner, it, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// All 16 connections are still open and idle; a fresh client must get
	// through instantly — connections do not hold pool slots.
	extra, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer extra.Close()
	if _, err := extra.States(); err != nil {
		t.Fatalf("17th client starved by 16 idle persistent connections: %v", err)
	}
	if got := mgr.Allocations(); got != clients*iters {
		t.Errorf("allocations = %d, want %d", got, clients*iters)
	}
}

// TestServerFIFOOverSocket: grant order over the real wire is the order the
// alloc requests reached the manager.
func TestServerFIFOOverSocket(t *testing.T) {
	mgr, sock := serveTestManager(t, 1, Options{
		Threads: 8, Retries: 2000, RetryTimeout: 2 * time.Millisecond, Backoff: 1,
	})
	holder, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	heldIdx, _, err := holder.Alloc("holder")
	if err != nil {
		t.Fatal(err)
	}

	const K = 4
	order := make(chan int, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		i := i
		c, err := Dial("unix", sock)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			owner := fmt.Sprintf("w%d", i)
			idx, _, err := c.Alloc(owner)
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			order <- i
			if err := c.Release(owner, idx); err != nil {
				t.Errorf("client %d release: %v", i, err)
			}
		}()
		waitFor(t, fmt.Sprintf("client %d parked", i), func() bool { return mgr.Waiters() == i+1 })
	}
	if err := holder.Release("holder", heldIdx); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(order)
	want := 0
	for got := range order {
		if got != want {
			t.Fatalf("grant order over socket: got client %d, want %d", got, want)
		}
		want++
	}
}

// TestServerKeepsConnOnMalformedLine: one bad line gets an error reply and
// the connection keeps serving (it used to be dropped).
func TestServerKeepsConnOnMalformedLine(t *testing.T) {
	_, sock := serveTestManager(t, 1, Options{})
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rd := bufio.NewReader(conn)

	if _, err := conn.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	line, err := rd.ReadString('\n')
	if err != nil {
		t.Fatalf("no error reply to the malformed line: %v", err)
	}
	if !strings.Contains(line, "bad request") {
		t.Errorf("reply = %q, want a bad-request error", line)
	}
	// The same connection still works.
	if _, err := conn.Write([]byte(`{"op":"states"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	line, err = rd.ReadString('\n')
	if err != nil {
		t.Fatalf("connection dropped after a malformed line: %v", err)
	}
	if !strings.Contains(line, `"ok":true`) {
		t.Errorf("states reply = %q", line)
	}
}

// TestFaultResetQuarantineAndRevive: a rank whose reset fails is quarantined
// instead of being handed to a foreign tenant, and the observer's retry
// revives it once the fault clears.
func TestFaultResetQuarantineAndRevive(t *testing.T) {
	mgr := New(testMachine(t, 1), Options{Retries: 2, RetryTimeout: 2 * time.Millisecond})
	var failing atomic.Bool
	failing.Store(true)
	mgr.SetFaultPolicy(&FaultPolicy{
		FailReset: func(rank int) bool { return failing.Load() },
	})

	r, _, err := mgr.Alloc("vmA")
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.ReleaseOwned("vmA", r); err != nil {
		t.Fatal(err)
	}
	// vmB needs the dirty rank reset; the reset fails, the rank is
	// quarantined, and the request is abandoned after its retry budget.
	if _, _, err := mgr.Alloc("vmB"); !errors.Is(err, ErrNoRanks) {
		t.Fatalf("alloc with only a quarantined rank = %v, want ErrNoRanks", err)
	}
	if st := mgr.States()[0]; st != StateQUAR {
		t.Fatalf("state = %v, want QUAR", st)
	}
	if mgr.Faults() != 1 {
		t.Errorf("faults = %d, want 1", mgr.Faults())
	}
	if q := mgr.Quarantined(); len(q) != 1 || q[0] != r.Index() {
		t.Errorf("quarantined = %v", q)
	}

	// Fault clears; the observer's retry pass revives the rank.
	failing.Store(false)
	if n := mgr.RetryQuarantined(); n != 1 {
		t.Fatalf("revived %d ranks, want 1", n)
	}
	if st := mgr.States()[0]; st != StateNAAV {
		t.Fatalf("state after revival = %v, want NAAV", st)
	}
	if _, _, err := mgr.Alloc("vmB"); err != nil {
		t.Fatalf("alloc after revival: %v", err)
	}
}

// TestFaultRankDeadSkipped: a dead rank is quarantined on the way out and
// allocation falls through to healthy hardware.
func TestFaultRankDeadSkipped(t *testing.T) {
	mgr := New(testMachine(t, 2), Options{Retries: 2, RetryTimeout: 2 * time.Millisecond})
	mgr.SetFaultPolicy(&FaultPolicy{
		RankDead: func(rank int) bool { return rank == 0 },
	})
	r, _, err := mgr.Alloc("vm")
	if err != nil {
		t.Fatal(err)
	}
	if r.Index() != 1 {
		t.Errorf("granted rank %d, want the healthy rank 1", r.Index())
	}
	states := mgr.States()
	if states[0] != StateQUAR || states[1] != StateALLO {
		t.Errorf("states = %v, want [QUAR ALLO]", states)
	}
}

// TestFaultAllocStall: an injected manager stall is charged on top of the
// allocation round trip.
func TestFaultAllocStall(t *testing.T) {
	mgr := New(testMachine(t, 1), Options{})
	mgr.SetFaultPolicy(&FaultPolicy{
		AllocStall: func(owner string) time.Duration { return 5 * time.Millisecond },
	})
	_, latency, err := mgr.Alloc("vm")
	if err != nil {
		t.Fatal(err)
	}
	if latency != 41*time.Millisecond {
		t.Errorf("latency = %v, want 36ms + 5ms stall", latency)
	}
}
