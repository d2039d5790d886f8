package vmm

import (
	"testing"
	"time"

	"repro/internal/manager"
	"repro/internal/obs"
	"repro/internal/pim"
)

// sliceStack builds a one-rank machine whose manager time-slices with a
// 1µs quantum: any tenant that has run an operation is over its quantum,
// so the next competing allocation preempts it at once instead of waiting
// out poll timers.
func sliceStack(t *testing.T) (*pim.Machine, *manager.Manager) {
	t.Helper()
	mach, _ := testStack(t, 1)
	return mach, manager.New(mach, manager.Options{
		Retries:      8,
		RetryTimeout: time.Millisecond,
		SchedPolicy:  manager.SchedSlice,
		Quantum:      time.Microsecond,
	})
}

// TestResumeChargesInsideVMMSpan pins where the backend opens a chain's VMM
// span: after the header decodes and before the rank is acquired. A tenant
// the scheduler preempted resumes inside its next window, so the resume's
// op:alloc/op:ckpt/op:restore charges must lie inside the VMM hop of the
// chain that paid them — with a window of one chain (no pipelining) and
// with a pipelined window whose first chain pays for the rest.
func TestResumeChargesInsideVMMSpan(t *testing.T) {
	for _, tc := range []struct {
		name     string
		pipeline bool
	}{{"depth1", false}, {"depth8", true}} {
		t.Run(tc.name, func(t *testing.T) {
			mach, mgr := sliceStack(t)
			opts := Full()
			opts.Pipeline = tc.pipeline
			a, err := NewVM(mach, mgr, Config{Name: "a", Options: opts})
			if err != nil {
				t.Fatal(err)
			}
			a.EnableTracing()
			b, err := NewVM(mach, mgr, Config{Name: "b", Options: Full()})
			if err != nil {
				t.Fatal(err)
			}
			setA, err := a.AllocSet(4)
			if err != nil {
				t.Fatal(err)
			}
			if err := setA.Load("noop"); err != nil {
				t.Fatal(err)
			}
			// MRAM contents give the checkpoint and restore real copies.
			buf, err := a.AllocBuffer(64 << 10)
			if err != nil {
				t.Fatal(err)
			}
			if err := setA.CopyToMRAM(0, 0, buf, len(buf.Data)); err != nil {
				t.Fatal(err)
			}
			// B's attach preempts A, and B's own work leaves it over its
			// quantum, so A's next operation resumes by preempting B.
			setB, err := b.AllocSet(4)
			if err != nil {
				t.Fatal(err)
			}
			if err := setB.Load("noop"); err != nil {
				t.Fatal(err)
			}
			restores := mgr.SchedRestores()
			v := []byte{1, 2, 3, 4}
			for i := 0; i < 2; i++ {
				if err := setA.CopyToSym(i, "v", 0, v); err != nil {
					t.Fatal(err)
				}
			}
			got := make([]byte, len(v))
			if err := setA.CopyFromSym(1, "v", 0, got); err != nil {
				t.Fatal(err)
			}
			if mgr.SchedRestores() == restores {
				t.Fatal("A resumed without a restore: the scenario did not preempt")
			}

			events := a.Recorder().Events()
			var hops []obs.Event
			for _, ev := range events {
				if ev.Cat == "vmm" {
					hops = append(hops, ev)
				}
			}
			inside := func(ev obs.Event) bool {
				for _, h := range hops {
					if h.Start <= ev.Start && ev.Start+ev.Dur <= h.Start+h.Dur {
						return true
					}
				}
				return false
			}
			resumed := false
			for _, ev := range events {
				if ev.Cat != "op" || ev.Dur == 0 {
					continue
				}
				switch ev.Name {
				case "restore":
					resumed = true
				case "alloc", "ckpt":
				default:
					continue
				}
				if !inside(ev) {
					t.Errorf("op:%s charge [%v, +%v] lies outside every VMM span", ev.Name, ev.Start, ev.Dur)
				}
			}
			if !resumed {
				t.Error("the traced VM recorded no op:restore charge")
			}
		})
	}
}
