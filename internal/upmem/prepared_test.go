package upmem

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"testing"

	"repro/internal/manager"
	"repro/internal/native"
	"repro/internal/pim"
	"repro/internal/prim"
	"repro/internal/sdk"
	"repro/internal/vmm"
)

// hashIndexData hashes every word index search's prepared value holds:
// the partition images, the queries and each query's expected hits. A
// slice is hashed to its capacity, so an append that writes into the
// spare capacity shows too.
func hashIndexData(in *indexData) uint64 {
	h := fnv.New64a()
	words := func(s []uint32) {
		for _, w := range s[:cap(s)] {
			h.Write(binary.LittleEndian.AppendUint32(nil, w))
		}
	}
	for _, img := range in.images {
		words(img)
	}
	words(in.queries)
	for _, hits := range in.want {
		for _, hit := range hits[:cap(hits)] {
			words([]uint32{hit.Doc, hit.Pos})
		}
	}
	return h.Sum64()
}

// errNoSet is what noSetEnv answers a run's first device call with.
var errNoSet = errors.New("environment allocates no DPUs")

// noSetEnv refuses AllocSet, so a run in it prepares and stops.
type noSetEnv struct{ sdk.Env }

func (noSetEnv) AllocSet(int) (*sdk.Set, error) { return nil, errNoSet }

// TestIndexSearchPreparedReadOnly: a run of index search fills
// prim.Prepared's entry before its first device call. Its native run and
// its vmm.Full run at the same params must then both use that value, not a
// rebuilt one, and leave it as a fresh build hashes: a run that writes
// into an image, a query or an expected hit fails here.
func TestIndexSearchPreparedReadOnly(t *testing.T) {
	p := IndexSearchParams{DPUs: 8, Docs: 200, TermsPerDoc: 60, Queries: 64, BatchSize: 32, Seed: 3}.withDefaults()
	want := hashIndexData(prepareIndexSearch(p))
	prim.Prepared("another app", 0, func(int) int { return 0 })
	if err := RunIndexSearch(noSetEnv{}, p); !errors.Is(err, errNoSet) {
		t.Fatalf("run without DPUs = %v, want %v", err, errNoSet)
	}
	held := prim.Prepared("upmem/index-search", p, func(IndexSearchParams) *indexData {
		t.Fatal("the run prepared nothing before its first device call")
		return nil
	})
	if hashIndexData(held) != want {
		t.Fatal("the prepared value differs from a fresh build")
	}
	newMachine := func() (*pim.Machine, *manager.Manager) {
		mach, err := pim.NewMachine(pim.MachineConfig{Ranks: 1, Rank: pim.RankConfig{DPUs: p.DPUs, MRAMBytes: 8 << 20}})
		if err != nil {
			t.Fatal(err)
		}
		if err := Register(mach.Registry()); err != nil {
			t.Fatal(err)
		}
		return mach, manager.New(mach, manager.Options{})
	}
	check := func(name string, env sdk.Env) {
		t.Helper()
		if err := RunIndexSearch(env, p); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if prim.Prepared("upmem/index-search", p, prepareIndexSearch) != held {
			t.Fatalf("%s: the run replaced the prepared value", name)
		}
		if hashIndexData(held) != want {
			t.Fatalf("%s: the run changed the prepared value", name)
		}
	}
	mach, mgr := newMachine()
	check("native", native.NewEnv(mach, mgr, 1<<30))
	mach, mgr = newMachine()
	vm, err := vmm.NewVM(mach, mgr, vmm.Config{Name: "t", Options: vmm.Full()})
	if err != nil {
		t.Fatal(err)
	}
	check("vPIM", vm)
}
