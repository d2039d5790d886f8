// Command vpim-manager runs the host-side rank manager as a standalone
// daemon over a UNIX domain socket (Section 3.5): the process every
// Firecracker instance on the host contacts to allocate and release UPMEM
// ranks, first come first served with a retry timeout, while a background
// observer resets released ranks.
//
// Usage:
//
//	vpim-manager -socket /tmp/vpim-manager.sock -ranks 8
//
// The protocol is newline-delimited JSON, one reply per request, with the
// four verbs of manager.Request:
//
//	{"op":"alloc","owner":"vm0"}             {"ok":true,"rank":1,"latencyNs":36000000}
//	{"op":"release","owner":"vm0","rank":1}  {"ok":true}
//	{"op":"states"}                          {"ok":true,"states":["NAAV","NANA"]}
//	{"op":"metrics"}                         {"ok":true,"metrics":{"manager.releases":1,...}}
//
// A release of a rank the owner does not hold is refused, and a reply
// omits a zero "rank".
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
	)
	flag.Parse()
	opts := manager.Options{
		Threads:      *threads,
		Retries:      *retries,
		RetryTimeout: *timeout,
		Backoff:      *backoff,
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := run(*socket, *ranks, *dpus, opts, stop); err != nil {
		fmt.Fprintln(os.Stderr, "vpim-manager:", err)
		os.Exit(1)
	}
}

// run serves the manager on socket until stop delivers a value or is
// closed, then shuts down and returns nil.
func run(socket string, ranks, dpus int, opts manager.Options, stop <-chan os.Signal) error {
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

	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	select {
	case <-stop:
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
