package prim

import (
	"encoding/binary"
	"errors"
	"hash/maphash"
	"reflect"
	"sync"
	"testing"

	"repro/internal/manager"
	"repro/internal/native"
	"repro/internal/pim"
	"repro/internal/sdk"
	"repro/internal/vmm"
)

// errNoSet is what prepareOnlyEnv answers a run's first device call with.
var errNoSet = errors.New("prepare-only environment allocates no DPUs")

// prepareOnlyEnv refuses AllocSet, the first device call of every run: a
// run in it validates its Params, fills the prepared entry and stops.
type prepareOnlyEnv struct{ sdk.Env }

func (prepareOnlyEnv) AllocSet(int) (*sdk.Set, error) { return nil, errNoSet }

func resetPrepared() {
	lastPrepared.Lock()
	lastPrepared.v = nil
	lastPrepared.Unlock()
}

func preparedEntry() any {
	lastPrepared.Lock()
	defer lastPrepared.Unlock()
	return lastPrepared.v
}

// hashPrepared hashes every number a prepared value holds, through
// pointers, struct fields and slices. A slice is hashed to its capacity,
// so an append that writes into the spare capacity shows too.
func hashPrepared(t *testing.T, v any) uint64 {
	var h maphash.Hash
	h.SetSeed(preparedSeed)
	var b [8]byte
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			walk(v.Elem())
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Slice:
			v = v.Slice(0, v.Cap())
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Int, reflect.Int32, reflect.Int64:
			binary.LittleEndian.PutUint64(b[:], uint64(v.Int()))
			h.Write(b[:])
		case reflect.Uint32, reflect.Uint64:
			binary.LittleEndian.PutUint64(b[:], v.Uint())
			h.Write(b[:])
		default:
			t.Fatalf("hashPrepared: no rule for kind %v", v.Kind())
		}
	}
	walk(reflect.ValueOf(v))
	return h.Sum64()
}

// preparedSeed makes every hashPrepared of one test binary comparable.
var preparedSeed = maphash.MakeSeed()

// TestPreparedReadOnly builds each application's prepared value once, at
// the conformance geometry, and hashes it. The app then runs natively and
// under vmm.Full, both on that value, which must still hash as it did
// fresh: a run that writes into a prepared input or reference fails here.
func TestPreparedReadOnly(t *testing.T) {
	t.Cleanup(resetPrepared)
	p := Params{DPUs: 16}
	for _, app := range Apps() {
		resetPrepared()
		if err := app.Run(prepareOnlyEnv{}, p); !errors.Is(err, errNoSet) {
			t.Fatalf("%s: run in a prepare-only environment = %v, want %v", app.Name, err, errNoSet)
		}
		fresh := preparedEntry()
		if fresh == nil {
			t.Fatalf("%s prepared nothing before its first device call", app.Name)
		}
		want := hashPrepared(t, fresh)

		mach, mgr := preparedTestMachine(t, p.DPUs)
		if err := app.Run(native.NewEnv(mach, mgr, 2<<30), p); err != nil {
			t.Fatalf("%s native: %v", app.Name, err)
		}
		mach, mgr = preparedTestMachine(t, p.DPUs)
		vm, err := vmm.NewVM(mach, mgr, vmm.Config{Name: "t", Options: vmm.Full()})
		if err != nil {
			t.Fatal(err)
		}
		if err := app.Run(vm, p); err != nil {
			t.Fatalf("%s vPIM: %v", app.Name, err)
		}

		if preparedEntry() != fresh {
			t.Errorf("%s: a run with the entry's Params rebuilt it", app.Name)
		}
		if got := hashPrepared(t, fresh); got != want {
			t.Errorf("%s: prepared data changed across its native and vPIM runs", app.Name)
		}
	}
}

func preparedTestMachine(t *testing.T, dpus int) (*pim.Machine, *manager.Manager) {
	t.Helper()
	mach, err := pim.NewMachine(pim.MachineConfig{
		Ranks: 1,
		Rank:  pim.RankConfig{DPUs: dpus, MRAMBytes: 8 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := Register(mach.Registry()); err != nil {
		t.Fatal(err)
	}
	return mach, manager.New(mach, manager.Options{})
}

// BenchmarkPrepare reports, per app at the Fig 8 geometry (60 DPUs), what
// a run costs on top of a repeat run of the same (app, Params): building
// its dataset and CPU reference. Each iteration clears the entry, and the
// run stops at its first device call.
func BenchmarkPrepare(b *testing.B) {
	b.Cleanup(resetPrepared)
	for _, app := range Apps() {
		b.Run(app.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				resetPrepared()
				if err := app.Run(prepareOnlyEnv{}, Params{}); !errors.Is(err, errNoSet) {
					b.Fatalf("%s: run in a prepare-only environment = %v, want %v", app.Name, err, errNoSet)
				}
			}
		})
	}
}

// TestPreparedConcurrent calls prepared from several goroutines at once on
// two keys, so each call may hit, miss, or race another build of its key:
// every call must still get the value built for its own key.
func TestPreparedConcurrent(t *testing.T) {
	t.Cleanup(resetPrepared)
	build := func(p Params) *Params { return &p }
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				seed := int64(1 + (g+i)%2)
				if got := prepared("T", Params{Seed: seed}, build); got.Seed != seed {
					t.Errorf("prepared for seed %d returned seed %d's value", seed, got.Seed)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
