package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/manager"
)

// TestRunServesAndStops drives the daemon over a temporary socket: two
// owners allocate, a cross-owner release is refused, the owner's release
// leaves its rank NANA until the observer returns it to NAAV, metrics count
// one release, and closing stop makes run return nil.
func TestRunServesAndStops(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "mgr.sock")
	stop := make(chan os.Signal)
	done := make(chan error, 1)
	go func() {
		done <- run(sock, 2, 4, manager.Options{Retries: 1, RetryTimeout: time.Millisecond}, stop)
	}()

	// The dial retries until run's listener is up.
	client, err := manager.DialWith("unix", sock, manager.DialOptions{Retries: 100, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	rankA, _, err := client.Alloc("vmA")
	if err != nil {
		t.Fatal(err)
	}
	rankB, _, err := client.Alloc("vmB")
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Release("vmB", rankA); err == nil {
		t.Error("vmB released vmA's rank")
	}
	if err := client.Release("vmA", rankA); err != nil {
		t.Fatal(err)
	}
	// The observer may tick between the release and the states read, but
	// it can only return the rank to NAAV through a reset, which metrics
	// count; metrics are read second.
	states, err := client.States()
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if st := states[rankA]; st != "NANA" && (st != "NAAV" || metrics["manager.resets"] != 1) {
		t.Errorf("released rank %d is %s after %d resets, want NANA until the observer resets it", rankA, st, metrics["manager.resets"])
	}
	for deadline := time.Now().Add(5 * time.Second); states[rankA] != "NAAV"; {
		if time.Now().After(deadline) {
			t.Fatalf("the observer never reset rank %d: %v", rankA, states)
		}
		time.Sleep(10 * time.Millisecond)
		if states, err = client.States(); err != nil {
			t.Fatal(err)
		}
	}
	if states[rankB] != "ALLO" {
		t.Errorf("vmB's rank %d is %s, want ALLO", rankB, states[rankB])
	}
	if metrics, err = client.Metrics(); err != nil {
		t.Fatal(err)
	}
	if got := metrics["manager.releases"]; got != 1 {
		t.Errorf("metrics report %d releases, want 1", got)
	}

	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("run returned %v after stop", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after stop")
	}
}
