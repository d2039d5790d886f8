// Command vpim-manager runs the host-side rank manager as a standalone
// daemon over a UNIX domain socket (Section 3.5): the process every
// Firecracker instance on the host contacts to allocate and release UPMEM
// ranks. The protocol is newline-delimited JSON; see internal/manager.
//
// Usage:
//
//	vpim-manager -socket /tmp/vpim-manager.sock -ranks 8
//
// Try it with a shell client:
//
//	printf '{"op":"alloc","owner":"vm0"}\n' | nc -U /tmp/vpim-manager.sock
//
// The METRICS verb returns the manager's counter snapshot (allocations
// granted/parked/timed out, releases, resets, quarantines) as JSON.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/manager"
	"repro/internal/pim"
)

func main() {
	var (
		socket  = flag.String("socket", "/tmp/vpim-manager.sock", "UNIX socket path")
		ranks   = flag.Int("ranks", 8, "physical ranks on the machine")
		dpus    = flag.Int("dpus", 60, "functional DPUs per rank")
		threads = flag.Int("threads", 8, "request thread-pool size (bounds in-flight requests)")
		retries = flag.Int("retries", 3, "allocation poll attempts before abandoning")
		timeout = flag.Duration("retry-timeout", 100*time.Millisecond, "first allocation poll interval")
		backoff = flag.Float64("backoff", 2, "poll-interval multiplier per failed attempt")
		sched   = flag.String("sched", "none", "oversubscription policy: none (FIFO wait) or slice (preemptive time-slicing)")
		quantum = flag.Duration("quantum", 5*time.Millisecond, "virtual runtime per slice before a tenant becomes preemptible (-sched slice)")
	)
	flag.Parse()
	var policy manager.SchedPolicy
	switch *sched {
	case "none":
		policy = manager.SchedNone
	case "slice":
		policy = manager.SchedSlice
	default:
		fmt.Fprintf(os.Stderr, "vpim-manager: unknown -sched policy %q (want none or slice)\n", *sched)
		os.Exit(2)
	}
	opts := manager.Options{
		Threads:      *threads,
		Retries:      *retries,
		RetryTimeout: *timeout,
		Backoff:      *backoff,
		SchedPolicy:  policy,
		Quantum:      *quantum,
	}
	if err := run(*socket, *ranks, *dpus, opts); err != nil {
		fmt.Fprintln(os.Stderr, "vpim-manager:", err)
		os.Exit(1)
	}
}

func run(socket string, ranks, dpus int, opts manager.Options) error {
	mach, err := pim.NewMachine(pim.MachineConfig{
		Ranks: ranks,
		Rank:  pim.RankConfig{DPUs: dpus},
	})
	if err != nil {
		return err
	}
	mgr := manager.New(mach, opts)
	// The observer thread erases released ranks in the background
	// (Section 3.5).
	obs := mgr.StartObserver(100 * time.Millisecond)
	defer obs.Stop()
	srv := manager.NewServer(mgr)

	_ = os.Remove(socket)
	l, err := net.Listen("unix", socket)
	if err != nil {
		return err
	}
	fmt.Printf("vpim-manager: %d ranks (%d DPUs each), listening on %s\n", ranks, dpus, socket)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	select {
	case <-sig:
		fmt.Println("vpim-manager: shutting down")
		// Close the manager first: waiters parked in the FIFO queue unwind
		// immediately instead of sleeping out their retry budgets.
		mgr.Close()
		srv.Shutdown()
		<-done
		return nil
	case err := <-done:
		return err
	}
}
