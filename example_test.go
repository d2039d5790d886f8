package vpim_test

import (
	"fmt"

	vpim "repro"
)

// ExampleNewHost builds a machine, runs the checksum microbenchmark both
// natively and under vPIM, and compares the deterministic virtual times.
func ExampleNewHost() {
	host, err := vpim.NewHost(vpim.HostConfig{Ranks: 1, DPUsPerRank: 8, MRAMBytes: 8 << 20})
	if err != nil {
		fmt.Println(err)
		return
	}
	if err := vpim.RegisterWorkloads(host); err != nil {
		fmt.Println(err)
		return
	}

	params := vpim.ChecksumParams{DPUs: 8, BytesPerDPU: 1 << 20}
	native := host.NativeEnv()
	if err := vpim.RunChecksum(native, params); err != nil {
		fmt.Println(err)
		return
	}

	vm, err := host.NewVM(vpim.VMConfig{Name: "demo", Options: vpim.FullOptions()})
	if err != nil {
		fmt.Println(err)
		return
	}
	if err := vpim.RunChecksum(vm, params); err != nil {
		fmt.Println(err)
		return
	}

	var nat, vp vpim.Duration
	for _, ph := range vpim.Phases() {
		nat += native.Tracker().Get(ph)
		vp += vm.Tracker().Get(ph)
	}
	fmt.Printf("virtualized slower: %v\n", vp > nat)
	// Output:
	// virtualized slower: true
}

// ExampleHost_Manager shows the rank lifecycle of Fig. 5.
func ExampleHost_Manager() {
	host, err := vpim.NewHost(vpim.HostConfig{Ranks: 1, DPUsPerRank: 8, MRAMBytes: 8 << 20})
	if err != nil {
		fmt.Println(err)
		return
	}
	mgr := host.Manager()
	rank, _, err := mgr.Alloc("tenant")
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("after alloc:", mgr.States()[0])
	if err := mgr.ReleaseOwned("tenant", rank); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("after release:", mgr.States()[0])
	mgr.ProcessResets()
	fmt.Println("after reset:", mgr.States()[0])
	// Output:
	// after alloc: ALLO
	// after release: NANA
	// after reset: NAAV
}
