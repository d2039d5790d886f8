package manager

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/pim"
)

// schedOpts is the scheduler test configuration: a nanosecond quantum so any
// tenant that has run at all is past it, and a short real poll interval.
func schedOpts() Options {
	return Options{
		SchedPolicy:  SchedSlice,
		Quantum:      time.Nanosecond,
		Retries:      6,
		RetryTimeout: time.Millisecond,
		Backoff:      1,
	}
}

// TestSchedPreemptsLongestSlice drives the full preemption round trip on a
// 2-rank machine with three tenants: the waiter must evict the tenant with
// the longest current slice, the evicted tenant's bytes must survive the
// park/restore cycle, and its resume must in turn preempt the next-longest
// runner.
func TestSchedPreemptsLongestSlice(t *testing.T) {
	mgr := New(testMachine(t, 2), schedOpts())
	a, _, err := mgr.Alloc("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.WriteDPU(0, 0, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	mgr.EndOp(a, 2*time.Millisecond)
	b, _, err := mgr.Alloc("b")
	if err != nil {
		t.Fatal(err)
	}
	mgr.EndOp(b, time.Millisecond)

	// Both ranks busy: c's allocation must preempt a — the longest slice.
	c, _, err := mgr.Alloc("c")
	if err != nil {
		t.Fatal(err)
	}
	if c.Index() != a.Index() {
		t.Errorf("c granted rank %d, want the longest runner's rank %d", c.Index(), a.Index())
	}
	if n := mgr.Preemptions(); n != 1 {
		t.Errorf("preemptions = %d, want 1", n)
	}
	if parked := mgr.Parked(); len(parked) != 1 || parked[0] != "a" {
		t.Fatalf("parked = %v, want [a]", parked)
	}

	// a's next operation resumes it: the allocation inside must evict b (the
	// remaining longest runner) and the restore must bring "hello" back.
	ra, acost, err := mgr.Acquire("a", a)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Index() != b.Index() {
		t.Errorf("resume landed on rank %d, want preempted rank %d", ra.Index(), b.Index())
	}
	if acost.Restore <= 0 {
		t.Error("a restore has a modeled cost")
	}
	got := make([]byte, 5)
	if err := ra.ReadDPU(0, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("hello")) {
		t.Errorf("bytes after preempt+restore = %q, want hello (preemption may only move time, never bytes)", got)
	}
	mgr.EndOp(ra, 0)
	if n := mgr.SchedRestores(); n != 1 {
		t.Errorf("restores = %d, want 1", n)
	}

	rows := mgr.Sched()
	byOwner := make(map[string]OwnerSched, len(rows))
	for _, r := range rows {
		byOwner[r.Owner] = r
	}
	if r := byOwner["a"]; r.Preemptions != 1 || r.Restores != 1 || r.Parked || r.Rank != ra.Index() {
		t.Errorf("sched row for a = %+v", r)
	}
	if r := byOwner["b"]; r.Preemptions != 1 || !r.Parked || r.Rank != -1 {
		t.Errorf("sched row for b = %+v", r)
	}
}

// TestSchedQuantumProtectionAndAging gives the resident tenant an enormous
// quantum: the waiter must be deferred (counted on manager.sched.wait) for
// agingPasses passes and then preempt anyway — bounded starvation, not
// permanent protection.
func TestSchedQuantumProtectionAndAging(t *testing.T) {
	opts := schedOpts()
	opts.Quantum = time.Hour
	mgr := New(testMachine(t, 1), opts)
	a, _, err := mgr.Alloc("a")
	if err != nil {
		t.Fatal(err)
	}
	mgr.EndOp(a, time.Millisecond)

	start := time.Now()
	if _, _, err := mgr.Alloc("b"); err != nil {
		t.Fatalf("aging never preempted the protected tenant: %v", err)
	}
	// The enqueue pass and the first poll pass defer; the grant can arrive
	// no earlier than the second poll wake.
	if elapsed := time.Since(start); elapsed < 2*opts.RetryTimeout {
		t.Errorf("granted after %v: quantum protection never deferred the waiter", elapsed)
	}
	if n := mgr.Metrics()["manager.sched.wait"]; n < 2 {
		t.Errorf("sched.wait = %d, want the %d deferred passes counted", n, agingPasses)
	}
	if n := mgr.Preemptions(); n != 1 {
		t.Errorf("preemptions = %d, want 1", n)
	}
	if parked := mgr.Parked(); len(parked) != 1 || parked[0] != "a" {
		t.Errorf("parked = %v, want [a]", parked)
	}
}

// TestSchedReleaseWhileParked tears a tenant down while its snapshot is
// parked: the release must discard the snapshot and must not touch the
// physical rank, which by then belongs to another tenant.
func TestSchedReleaseWhileParked(t *testing.T) {
	mgr := New(testMachine(t, 1), schedOpts())
	a, _, err := mgr.Alloc("a")
	if err != nil {
		t.Fatal(err)
	}
	mgr.EndOp(a, time.Millisecond)
	b, _, err := mgr.Alloc("b") // preempts a; same physical rank
	if err != nil {
		t.Fatal(err)
	}
	if b.Index() != a.Index() {
		t.Fatalf("single-rank machine handed out rank %d and %d", a.Index(), b.Index())
	}

	// a releases through its stale rank pointer.
	if err := mgr.ReleaseOwned("a", a); err != nil {
		t.Fatal(err)
	}
	if len(mgr.Parked()) != 0 {
		t.Error("release while parked must discard the snapshot")
	}
	if st := mgr.States()[b.Index()]; st != StateALLO {
		t.Errorf("b's rank is %v after a's release: the stale pointer was dereferenced", st)
	}
	if owner := mgr.Owners()[b.Index()]; owner != "b" {
		t.Errorf("b's rank owned by %q after a's release", owner)
	}
	// a is fully gone: its next operation must be told to re-attach…
	if _, _, err := mgr.Acquire("a", a); !errors.Is(err, ErrRankFaulted) {
		t.Errorf("acquire after release-while-parked: %v, want ErrRankFaulted", err)
	}
	// …while b keeps operating undisturbed.
	if _, _, err := mgr.Acquire("b", b); err != nil {
		t.Errorf("b's operation after a's release: %v", err)
	}
	mgr.EndOp(b, 0)
}

// TestSchedRankDeathWhileParked kills the machine while a tenant's snapshot
// is parked: the resume must fail without losing the snapshot, and once the
// hardware recovers (RetryQuarantined) the resume must restore the exact
// bytes.
func TestSchedRankDeathWhileParked(t *testing.T) {
	mgr := New(testMachine(t, 1), schedOpts())
	a, _, err := mgr.Alloc("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.WriteDPU(0, 0, []byte("persist")); err != nil {
		t.Fatal(err)
	}
	mgr.EndOp(a, time.Millisecond)
	b, _, err := mgr.Alloc("b") // preempts a
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.ReleaseOwned("b", b); err != nil {
		t.Fatal(err)
	}

	dead := true
	mgr.SetFaultPolicy(&FaultPolicy{RankDead: func(int) bool { return dead }})
	_, _, err = mgr.Acquire("a", a)
	if err == nil {
		t.Fatal("resume on a dead machine must fail")
	}
	if !errors.Is(err, ErrNoRanks) {
		t.Fatalf("resume error = %v, want ErrNoRanks (no usable rank)", err)
	}
	if parked := mgr.Parked(); len(parked) != 1 || parked[0] != "a" {
		t.Fatalf("snapshot lost by the failed resume: parked = %v", parked)
	}

	// Hardware returns; the observer revives the quarantined rank and the
	// very same Acquire now restores the original bytes.
	dead = false
	if n := mgr.RetryQuarantined(); n != 1 {
		t.Fatalf("RetryQuarantined revived %d ranks, want 1", n)
	}
	ra, acost, err := mgr.Acquire("a", a)
	if err != nil {
		t.Fatal(err)
	}
	if acost.Restore <= 0 {
		t.Error("a restore has a modeled cost")
	}
	got := make([]byte, 7)
	if err := ra.ReadDPU(0, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("persist")) {
		t.Errorf("bytes after death+revival = %q, want persist", got)
	}
	mgr.EndOp(ra, 0)
}

// TestSchedRestoreFailureQuarantinesTarget fails the first restore attempt
// of a resume: the poisoned target must be quarantined (it holds an unknown
// mix of tenant bytes) and the resume must retry onto a fresh rank and
// succeed with the bytes intact.
func TestSchedRestoreFailureQuarantinesTarget(t *testing.T) {
	mgr := New(testMachine(t, 2), schedOpts())
	a, _, err := mgr.Alloc("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.WriteDPU(0, 0, []byte("keep")); err != nil {
		t.Fatal(err)
	}
	mgr.EndOp(a, 2*time.Millisecond)
	b, _, err := mgr.Alloc("b")
	if err != nil {
		t.Fatal(err)
	}
	mgr.EndOp(b, time.Millisecond)
	c, _, err := mgr.Alloc("c") // preempts a, the longest slice
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.ReleaseOwned("c", c); err != nil {
		t.Fatal(err)
	}
	if err := mgr.ReleaseOwned("b", b); err != nil {
		t.Fatal(err)
	}

	// The first restore target fails; every later one works.
	failedTarget := -1
	mgr.SetFaultPolicy(&FaultPolicy{FailRestore: func(rank int) bool {
		if failedTarget < 0 {
			failedTarget = rank
			return true
		}
		return false
	}})
	ra, acost, err := mgr.Acquire("a", a)
	if err != nil {
		t.Fatal(err)
	}
	if failedTarget < 0 {
		t.Fatal("restore fault was never consulted")
	}
	if st := mgr.States()[failedTarget]; st != StateQUAR {
		t.Errorf("restore-failed rank %d is %v, want QUAR", failedTarget, st)
	}
	if ra.Index() == failedTarget {
		t.Errorf("resume retried onto the quarantined rank %d", failedTarget)
	}
	if acost.Restore <= 0 {
		t.Error("the successful restore has a modeled cost")
	}
	got := make([]byte, 4)
	if err := ra.ReadDPU(0, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("keep")) {
		t.Errorf("bytes after failed-then-retried restore = %q, want keep", got)
	}
	if n := mgr.Faults(); n != 1 {
		t.Errorf("quarantines = %d, want 1", n)
	}
	mgr.EndOp(ra, 0)
}

// TestSchedStressNoLeaks time-slices more owners than ranks under the race
// detector: every owner's byte must survive arbitrary rescheduling, and the
// drained manager must hold no ALLO rank, no waiter, and no parked snapshot.
// The migrate case also moves owners with MigrateOwned while others are
// being preempted and restored.
func TestSchedStressNoLeaks(t *testing.T) {
	for _, tc := range []struct {
		name          string
		ranks, owners int
		migrate       bool
	}{
		{name: "6 owners on 2 ranks", ranks: 2, owners: 6},
		{name: "8 owners on 6 ranks with migration", ranks: 6, owners: 8, migrate: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			schedStress(t, tc.ranks, tc.owners, tc.migrate)
		})
	}
}

func schedStress(t *testing.T, ranks, owners int, migrate bool) {
	const iters = 60
	mgr := New(testMachine(t, ranks), Options{
		SchedPolicy:  SchedSlice,
		Quantum:      200 * time.Microsecond,
		Retries:      10,
		RetryTimeout: time.Millisecond,
		Backoff:      1,
	})
	var wg sync.WaitGroup
	errs := make(chan error, owners)
	for o := 0; o < owners; o++ {
		wg.Add(1)
		go func(o int) {
			defer wg.Done()
			name := fmt.Sprintf("vm%d", o)
			var rank *pim.Rank
			var has bool
			var seq byte
			for i := 0; i < iters; i++ {
				if rank == nil {
					r, _, err := mgr.Alloc(name)
					if err != nil {
						continue // contention; try again next iteration
					}
					rank, has, seq = r, false, 0
				}
				r, _, err := mgr.Acquire(name, rank)
				if err != nil {
					if errors.Is(err, ErrRankFaulted) {
						rank, has, seq = nil, false, 0
					}
					continue // transient resume exhaustion under contention
				}
				rank = r
				if has {
					var got [1]byte
					if err := r.ReadDPU(0, 0, got[:]); err != nil {
						errs <- err
						mgr.EndOp(r, 0)
						return
					}
					if got[0] != seq {
						errs <- fmt.Errorf("%s: byte %#02x != %#02x after rescheduling", name, got[0], seq)
						mgr.EndOp(r, 0)
						return
					}
				}
				seq++
				if err := r.WriteDPU(0, 0, []byte{seq}); err != nil {
					errs <- err
					mgr.EndOp(r, 0)
					return
				}
				has = true
				mgr.EndOp(r, time.Millisecond)
				// Keep the rank resident (owned, unpinned) for a real-time
				// beat so other owners' scheduling passes can preempt it;
				// without this the Go scheduler serializes the owners and no
				// two ever contend.
				time.Sleep(200 * time.Microsecond)
				switch {
				case i%9 == 8:
					_ = mgr.ReleaseOwned(name, rank)
					rank, has, seq = nil, false, 0
				case migrate && i%3 == 2:
					if dst, _, err := mgr.MigrateOwned(name, rank); err == nil {
						rank = dst
					}
				}
			}
			if rank != nil {
				_ = mgr.ReleaseOwned(name, rank)
			}
			mgr.Discard(name)
		}(o)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	mgr.ProcessResets()
	for i, st := range mgr.States() {
		if st == StateALLO {
			t.Errorf("rank %d leaked ALLO after all owners drained", i)
		}
	}
	if n := mgr.Waiters(); n != 0 {
		t.Errorf("%d waiters leaked", n)
	}
	if parked := mgr.Parked(); len(parked) != 0 {
		t.Errorf("snapshots leaked: %v", parked)
	}
	if mgr.Preemptions() == 0 {
		t.Errorf("%d owners on %d ranks never preempted: the scheduler did not run", owners, ranks)
	}
	if migrate && mgr.Migrations() == 0 {
		t.Error("no MigrateOwned attempt succeeded")
	}
	t.Logf("stress: preemptions=%d restores=%d migrations=%d quarantines=%d",
		mgr.Preemptions(), mgr.SchedRestores(), mgr.Migrations(), mgr.Faults())
}
