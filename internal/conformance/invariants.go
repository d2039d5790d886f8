// Structural invariants over the observability counters and the virtual
// clock. These hold for every clean (fault-free) run of any configuration;
// the matrix runner checks them after every cell.
package conformance

import (
	"fmt"
	"time"

	"repro/internal/trace"
	"repro/internal/vmm"
)

// CheckCounters verifies the cross-layer counter identities on an
// aggregated (device tags stripped) snapshot of a clean run:
//
//   - every guest->VMM message is a submitted chain or an aggregated boot
//     round trip: frontend.messages equals transferq.chains +
//     controlq.chains + kvm.exits.aggregated;
//   - every notify exit is a queue kick: kvm.exits.notify equals
//     transferq.kicks + controlq.kicks;
//   - a chain that did not kick was suppressed: kvm.exits.suppressed
//     equals chains - kicks, and the device coalesced exactly that many
//     completion IRQs: kvm.irqs.coalesced equals kvm.exits.suppressed;
//   - every kick pairs with a completion IRQ on the clean path: kvm.irqs
//     equals kvm.exits.notify + kvm.exits.aggregated;
//   - the rings reconcile: every queue's avail index equals its used index
//     equals its submitted chains once the run quiesces;
//   - every control round trip is a controlq chain (and nothing else is):
//     frontend.control.roundtrips equals virtio.controlq.chains;
//   - every prefetch-cache lookup resolves: frontend.cache.lookups equals
//     frontend.cache.hits + frontend.cache.misses;
//   - every batched record is applied: frontend.batch.appends equals
//     backend.batch.records, and a flush never happens without records;
//   - every collapsed broadcast fans back out: frontend.bcast.collapsed +
//     frontend.bcast.rows_saved equals backend.bcast.fanout;
//   - a disabled optimization never counts: prefetch/batch counters are
//     zero when the corresponding option is off, pipelining off means zero
//     suppression and one kick per chain, and with the default batch
//     geometry no record overflows the buffer, so fallbacks stay zero (the
//     fallback path itself is exercised by BatchClipProbe);
//   - no kernel faults: backend.dpu.faults is zero, so the containment of
//     a kernel panic or deadlock cannot hide a bug in the repo's own runs.
func CheckCounters(snap map[string]int64, opts vmm.Options) error {
	get := func(name string) int64 { return snap[name] }
	messages := get("frontend.messages")
	notify := get("kvm.exits.notify")
	aggregated := get("kvm.exits.aggregated")
	suppressed := get("kvm.exits.suppressed")
	coalesced := get("kvm.irqs.coalesced")
	irqs := get("kvm.irqs")
	chains := get("virtio.transferq.chains") + get("virtio.controlq.chains")
	kicks := get("virtio.transferq.kicks") + get("virtio.controlq.kicks")

	if messages != chains+aggregated {
		return fmt.Errorf("invariant: frontend.messages=%d != chains+exits.aggregated=%d+%d",
			messages, chains, aggregated)
	}
	if notify != kicks {
		return fmt.Errorf("invariant: kvm.exits.notify=%d != queue kicks=%d", notify, kicks)
	}
	if suppressed != chains-kicks {
		return fmt.Errorf("invariant: kvm.exits.suppressed=%d != chains-kicks=%d-%d",
			suppressed, chains, kicks)
	}
	if coalesced != suppressed {
		return fmt.Errorf("invariant: kvm.irqs.coalesced=%d != kvm.exits.suppressed=%d",
			coalesced, suppressed)
	}
	if irqs != notify+aggregated {
		return fmt.Errorf("invariant: kvm.irqs=%d != exits=%d", irqs, notify+aggregated)
	}
	for _, q := range []string{"transferq", "controlq"} {
		qChains := get("virtio." + q + ".chains")
		avail := get("virtio." + q + ".avail")
		used := get("virtio." + q + ".used")
		if avail != qChains || used != qChains {
			return fmt.Errorf("invariant: %s avail=%d used=%d chains=%d do not reconcile",
				q, avail, used, qChains)
		}
	}
	if rts, cq := get("frontend.control.roundtrips"), get("virtio.controlq.chains"); rts != cq {
		return fmt.Errorf("invariant: frontend.control.roundtrips=%d != controlq.chains=%d", rts, cq)
	}
	if !opts.Pipeline && suppressed+coalesced != 0 {
		return fmt.Errorf("invariant: pipelining disabled but suppressed/coalesced %d/%d",
			suppressed, coalesced)
	}

	lookups := get("frontend.cache.lookups")
	hits := get("frontend.cache.hits")
	misses := get("frontend.cache.misses")
	if lookups != hits+misses {
		return fmt.Errorf("invariant: cache.lookups=%d != hits+misses=%d+%d", lookups, hits, misses)
	}
	if !opts.Prefetch && lookups+hits+misses != 0 {
		return fmt.Errorf("invariant: prefetch disabled but cache counters %d/%d/%d", lookups, hits, misses)
	}

	appends := get("frontend.batch.appends")
	flushes := get("frontend.batch.flushes")
	fallbacks := get("frontend.batch.fallbacks")
	records := get("backend.batch.records")
	if appends != records {
		return fmt.Errorf("invariant: batch.appends=%d != backend.batch.records=%d", appends, records)
	}
	if flushes > appends {
		return fmt.Errorf("invariant: batch.flushes=%d > batch.appends=%d", flushes, appends)
	}
	if !opts.Batch && appends+flushes+fallbacks != 0 {
		return fmt.Errorf("invariant: batching disabled but batch counters %d/%d/%d", appends, flushes, fallbacks)
	}
	if opts.Batch && opts.Driver.BatchPages == 0 && fallbacks != 0 {
		return fmt.Errorf("invariant: %d batch fallbacks under default geometry", fallbacks)
	}

	// Every collapsed broadcast fans back out on the backend: one collapsed
	// message carrying n targets saved n-1 rows and produced n fan-out
	// replications, so collapsed + rows_saved == fanout — and all three are
	// zero when the optimization is off.
	collapsed := get("frontend.bcast.collapsed")
	rowsSaved := get("frontend.bcast.rows_saved")
	fanout := get("backend.bcast.fanout")
	if collapsed+rowsSaved != fanout {
		return fmt.Errorf("invariant: bcast.collapsed+rows_saved=%d+%d != backend.bcast.fanout=%d",
			collapsed, rowsSaved, fanout)
	}
	if !opts.Bcast && collapsed+rowsSaved+fanout != 0 {
		return fmt.Errorf("invariant: broadcast disabled but bcast counters %d/%d/%d",
			collapsed, rowsSaved, fanout)
	}

	if faults := get("backend.dpu.faults"); faults != 0 {
		return fmt.Errorf("invariant: %d DPU faults", faults)
	}
	return nil
}

// CheckSpanReconciliation verifies that a traced VM's recorded spans
// reconcile exactly with the virtual-clock tracker: for every category the
// tracker accumulated, the recorder's span totals must match to the
// nanosecond, and the recorder must not have invented categories the
// tracker never saw. Both sides are fed from the same Timeline.Span/Charge
// stream, so any disagreement means a layer bypassed the instrumented path.
func CheckSpanReconciliation(vm *vmm.VM) error {
	tracked := vm.Tracker().Snapshot()
	recorded := vm.Recorder().CategoryTotals()
	for cat, want := range tracked {
		if got := recorded[cat]; got != want {
			return fmt.Errorf("invariant: category %q tracked %v but spans total %v", cat, want, got)
		}
	}
	for cat, got := range recorded {
		if _, ok := tracked[cat]; !ok && got != 0 {
			return fmt.Errorf("invariant: spans report %v for category %q the tracker never saw", got, cat)
		}
	}
	// The application-phase categories partition the run: their sum is the
	// execution-time metric and can never exceed the wall virtual clock.
	var phases time.Duration
	for _, ph := range trace.Phases {
		phases += tracked[ph]
	}
	if now := vm.Timeline().Now(); phases > now {
		return fmt.Errorf("invariant: phase total %v exceeds virtual clock %v", phases, now)
	}
	return nil
}
