package manager

import "time"

// Observer is the manager's dedicated background thread (Section 3.5): it
// watches the rank status files and erases released (NANA) ranks so they
// return to the allocatable pool without blocking any allocation request.
// It also re-tests quarantined ranks, reviving hardware whose injected
// fault has cleared (graceful recovery). In-process experiments call
// ProcessResets synchronously instead; the standalone daemon runs an
// Observer.
type Observer struct {
	mgr      *Manager
	interval time.Duration
	stop     chan struct{}
	done     chan struct{}
}

// StartObserver launches the background reset thread, polling the rank
// table every interval (the sysfs watch of the real system). Stop it with
// Stop; the manager stays usable throughout.
func (m *Manager) StartObserver(interval time.Duration) *Observer {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	o := &Observer{
		mgr:      m,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go o.run()
	return o
}

func (o *Observer) run() {
	defer close(o.done)
	ticker := time.NewTicker(o.interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			o.mgr.ProcessResets()
			o.mgr.RetryQuarantined()
		case <-o.stop:
			return
		}
	}
}

// Stop terminates the observer and waits for it to exit.
func (o *Observer) Stop() {
	close(o.stop)
	<-o.done
}
