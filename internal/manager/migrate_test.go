package manager

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

func TestMigrate(t *testing.T) {
	mgr := New(testMachine(t, 3), Options{})
	src, _, err := mgr.Alloc("tenant")
	if err != nil {
		t.Fatal(err)
	}
	if err := src.WriteDPU(0, 0, []byte("migrate me")); err != nil {
		t.Fatal(err)
	}

	dst, dur, err := mgr.MigrateOwned("tenant", src)
	if err != nil {
		t.Fatal(err)
	}
	if dur <= 0 {
		t.Error("migration has a modeled cost")
	}
	if dst == src {
		t.Fatal("must land on another rank")
	}
	got := make([]byte, 10)
	if err := dst.ReadDPU(0, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("migrate me")) {
		t.Errorf("migrated contents = %q", got)
	}
	if mgr.States()[src.Index()] != StateNANA {
		t.Error("source must be NANA after migration")
	}
	if mgr.States()[dst.Index()] != StateALLO || mgr.Owners()[dst.Index()] != "tenant" {
		t.Error("destination must be ALLO for the tenant")
	}
}

func TestMigratePrefersCleanThenResetsDirty(t *testing.T) {
	mgr := New(testMachine(t, 2), Options{})
	src, _, err := mgr.Alloc("a")
	if err != nil {
		t.Fatal(err)
	}
	// Dirty the only other rank via a second tenant's release.
	other, _, err := mgr.Alloc("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := other.WriteDPU(0, 0, []byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	if err := mgr.ReleaseOwned("b", other); err != nil {
		t.Fatal(err)
	}

	dst, _, err := mgr.MigrateOwned("a", src)
	if err != nil {
		t.Fatal(err)
	}
	if dst != other {
		t.Fatal("migration should reuse the NANA rank after resetting it")
	}
	got := make([]byte, 1)
	if err := dst.ReadDPU(0, 4096, got); err != nil {
		t.Fatal(err)
	}
	// Tenant b's data must be gone (only tenant a's snapshot present).
	probe := make([]byte, 1)
	if err := dst.ReadDPU(1, 0, probe); err != nil {
		t.Fatal(err)
	}
	if mgr.Resets() == 0 {
		t.Error("a dirty target must be reset before restore")
	}
}

func TestMigrateErrors(t *testing.T) {
	mach := testMachine(t, 1)
	mgr := New(mach, Options{})
	rank, _ := mach.Rank(0)
	if _, _, err := mgr.MigrateOwned("only", rank); !errors.Is(err, ErrNotAllocated) {
		t.Errorf("unallocated source: %v", err)
	}
	src, _, err := mgr.Alloc("only")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := mgr.MigrateOwned("only", src); !errors.Is(err, ErrNoRanks) {
		t.Errorf("no target: %v", err)
	}
}

// TestMigrateRacesRankDeath drives a countdown fault plan that kills the
// preferred migration target exactly when MigrateOwned's candidate scan reaches
// it: the dead rank must be quarantined and skipped, and the migration must
// land on the surviving rank with contents intact.
func TestMigrateRacesRankDeath(t *testing.T) {
	mgr := New(testMachine(t, 3), Options{})
	src, _, err := mgr.Alloc("tenant")
	if err != nil {
		t.Fatal(err)
	}
	if err := src.WriteDPU(0, 0, []byte("survivor")); err != nil {
		t.Fatal(err)
	}

	// The fuse ignores the consultation that granted src and fires on the
	// next consultation of rank 1 — the scan's preferred NAAV target.
	deadRank := 1
	consults := 0
	mgr.SetFaultPolicy(&FaultPolicy{
		RankDead: func(rank int) bool {
			if rank != deadRank {
				return false
			}
			consults++
			return consults >= 1
		},
	})

	dst, _, err := mgr.MigrateOwned("tenant", src)
	if err != nil {
		t.Fatal(err)
	}
	if dst.Index() == deadRank {
		t.Fatalf("migration landed on the dead rank %d", deadRank)
	}
	if st := mgr.States()[deadRank]; st != StateQUAR {
		t.Errorf("dead target must be quarantined, is %v", st)
	}
	got := make([]byte, 8)
	if err := dst.ReadDPU(0, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("survivor")) {
		t.Errorf("migrated contents = %q", got)
	}

	// Kill every remaining target: the next migration must fail cleanly —
	// ErrNoRanks, with the source still allocated and untouched.
	mgr.SetFaultPolicy(&FaultPolicy{RankDead: func(rank int) bool { return rank != dst.Index() }})
	if _, _, err := mgr.MigrateOwned("tenant", dst); !errors.Is(err, ErrNoRanks) {
		t.Fatalf("all-dead migration: %v", err)
	}
	if st := mgr.States()[dst.Index()]; st != StateALLO {
		t.Errorf("failed migration must leave the source ALLO, is %v", st)
	}
	if err := dst.ReadDPU(0, 0, got); err != nil || !bytes.Equal(got, []byte("survivor")) {
		t.Errorf("failed migration must not disturb source contents: %q, %v", got, err)
	}
}

// TestMigrateCountsMigrationsNotGrants pins the accounting contract: a
// consolidation move does not change admission, so it must increment
// manager.migrations and leave the grant counter alone.
func TestMigrateCountsMigrationsNotGrants(t *testing.T) {
	mgr := New(testMachine(t, 2), Options{})
	src, _, err := mgr.Alloc("tenant")
	if err != nil {
		t.Fatal(err)
	}
	grants := mgr.Allocations()
	if _, _, err := mgr.MigrateOwned("tenant", src); err != nil {
		t.Fatal(err)
	}
	if got := mgr.Allocations(); got != grants {
		t.Errorf("grants went %d -> %d across a migration: a move is not an admission", grants, got)
	}
	if n := mgr.Migrations(); n != 1 {
		t.Errorf("migrations = %d, want 1", n)
	}
	mt := mgr.Metrics()
	if mt["manager.migrations"] != 1 {
		t.Errorf("manager.migrations metric = %d, want 1", mt["manager.migrations"])
	}
	if mt["manager.allocs.granted"] != grants {
		t.Errorf("manager.allocs.granted metric = %d, want %d", mt["manager.allocs.granted"], grants)
	}
}

// TestMigrateRestoreFailureQuarantinesTarget fails the restore half of a
// migration: the half-written target must be quarantined, the source must
// stay allocated with its contents intact, and the checkpoint work that did
// happen must still be charged.
func TestMigrateRestoreFailureQuarantinesTarget(t *testing.T) {
	mgr := New(testMachine(t, 2), Options{})
	src, _, err := mgr.Alloc("tenant")
	if err != nil {
		t.Fatal(err)
	}
	if err := src.WriteDPU(0, 0, []byte("stay put")); err != nil {
		t.Fatal(err)
	}
	mgr.SetFaultPolicy(&FaultPolicy{FailRestore: func(rank int) bool { return rank != src.Index() }})
	_, dur, err := mgr.MigrateOwned("tenant", src)
	if err == nil {
		t.Fatal("migration with a failing restore must error")
	}
	if dur <= 0 {
		t.Error("the checkpoint copy that ran must be charged even though the migration failed")
	}
	target := 1 - src.Index()
	if st := mgr.States()[target]; st != StateQUAR {
		t.Errorf("restore-failed target is %v, want QUAR", st)
	}
	if st := mgr.States()[src.Index()]; st != StateALLO {
		t.Errorf("source is %v after failed migration, want ALLO", st)
	}
	got := make([]byte, 8)
	if err := src.ReadDPU(0, 0, got); err != nil || !bytes.Equal(got, []byte("stay put")) {
		t.Errorf("source contents after failed migration = %q, %v", got, err)
	}
}

// TestMigrateCheckpointFailureReoffersTarget fails the checkpoint half: the
// target — dirty NANA before the attempt, reset during it — must return to
// the pool clean (NAAV), a later allocation must get it at the plain 36 ms
// grant latency with no second reset, and the reset already spent must be
// charged to the failed migration.
func TestMigrateCheckpointFailureReoffersTarget(t *testing.T) {
	mgr := New(testMachine(t, 2), Options{})
	src, _, err := mgr.Alloc("a")
	if err != nil {
		t.Fatal(err)
	}
	other, _, err := mgr.Alloc("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := other.WriteDPU(0, 0, []byte{0xEE}); err != nil {
		t.Fatal(err)
	}
	if err := mgr.ReleaseOwned("b", other); err != nil {
		t.Fatal(err)
	}

	mgr.SetFaultPolicy(&FaultPolicy{FailCheckpoint: func(rank int) bool { return rank == src.Index() }})
	_, dur, err := mgr.MigrateOwned("a", src)
	if err == nil {
		t.Fatal("migration with a failing checkpoint must error")
	}
	if dur <= 0 {
		t.Error("the target reset that ran must be charged even though the migration failed")
	}
	if st := mgr.States()[other.Index()]; st != StateNAAV {
		t.Errorf("unused target is %v, want NAAV (back in the pool, reset)", st)
	}
	if st := mgr.States()[src.Index()]; st != StateALLO {
		t.Errorf("source is %v after failed migration, want ALLO", st)
	}
	resets := mgr.Resets()

	mgr.SetFaultPolicy(nil)
	got, latency, err := mgr.Alloc("c")
	if err != nil {
		t.Fatal(err)
	}
	if got.Index() != other.Index() {
		t.Errorf("alloc granted rank %d, want the re-offered target %d", got.Index(), other.Index())
	}
	if latency != 36*time.Millisecond {
		t.Errorf("re-offered target cost %v, want a clean 36ms grant (no second reset)", latency)
	}
	if mgr.Resets() != resets {
		t.Error("the re-offered target was reset twice")
	}
}

// TestMigrateSourceQuarantinedMidCopy quarantines the source (its death
// observed through Acquire, which the backend calls before every
// operation) and then attempts to migrate it: the manager must refuse
// cleanly with ErrNotAllocated instead of checkpointing a dead rank, and
// the ownership table must stay coherent.
func TestMigrateSourceQuarantinedMidCopy(t *testing.T) {
	mgr := New(testMachine(t, 2), Options{})
	src, _, err := mgr.Alloc("tenant")
	if err != nil {
		t.Fatal(err)
	}
	mgr.SetFaultPolicy(&FaultPolicy{RankDead: func(rank int) bool { return rank == src.Index() }})
	if _, _, err := mgr.Acquire("tenant", src); !errors.Is(err, ErrRankFaulted) {
		t.Fatalf("Acquire on dead allocated rank: %v", err)
	}
	if st := mgr.States()[src.Index()]; st != StateQUAR {
		t.Fatalf("dead allocated rank must be QUAR, is %v", st)
	}

	if _, _, err := mgr.MigrateOwned("tenant", src); !errors.Is(err, ErrNotAllocated) {
		t.Fatalf("migrating a quarantined source: %v", err)
	}
	if owner := mgr.Owners()[src.Index()]; owner != "" {
		t.Errorf("quarantined rank still owned by %q", owner)
	}

	// Recovery: once the hardware comes back, the quarantined rank rejoins
	// the pool and is allocatable again.
	mgr.SetFaultPolicy(nil)
	if n := mgr.RetryQuarantined(); n != 1 {
		t.Fatalf("RetryQuarantined revived %d ranks, want 1", n)
	}
	if _, _, err := mgr.Alloc("tenant2"); err != nil {
		t.Fatalf("alloc after revival: %v", err)
	}
}
