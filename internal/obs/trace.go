package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Lane identifiers: each span category family renders as its own pseudo
// thread in the Chrome trace viewer, so the phase breakdown (Fig. 8), the
// driver-op breakdown (Fig. 12), the write-to-rank steps (Fig. 13) and the
// per-request hop lanes stack vertically in one timeline.
const (
	LanePhase = 1 // phase:* categories (application phases)
	LaneOp    = 2 // op:* categories (driver operations)
	LaneStep  = 3 // step:* categories (write-to-rank steps)
	LaneGuest = 4 // per-request guest-driver hop (submission to drain)
	LaneVMM   = 5 // per-request VMM hop (Backend.HandleWindow/HandleControl)
	LaneRank  = 6 // per-request rank-op hop (physical MRAM access)
)

var laneNames = []struct {
	tid  int
	name string
}{
	{LanePhase, "phases"},
	{LaneOp, "ops"},
	{LaneStep, "steps"},
	{LaneGuest, "guest-driver"},
	{LaneVMM, "vmm-backend"},
	{LaneRank, "rank"},
}

// Event is one completed span on the virtual clock.
type Event struct {
	Name  string        // human-readable span name ("W-rank", "vmm:W-rank", ...)
	Cat   string        // category family ("phase", "op", "step", "guest", "vmm", "rank")
	TID   int           // lane (Lane* constant)
	Req   int64         // request ID threading the hop lanes; 0 = not request-scoped
	Start time.Duration // virtual start instant
	Dur   time.Duration // virtual duration
}

// Recorder collects spans for one VM. Recording is off by default — the
// simulation then pays only a nil/flag check per span — and is switched on
// by Enable (vm.EnableTracing). A nil *Recorder is a valid no-op sink.
type Recorder struct {
	mu      sync.Mutex
	enabled bool
	nextReq int64
	events  []Event
}

// NewRecorder returns a disabled recorder.
func NewRecorder() *Recorder {
	return &Recorder{}
}

// Enable switches span recording on.
func (r *Recorder) Enable() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.enabled = true
	r.mu.Unlock()
}

// Enabled reports whether spans are being recorded.
func (r *Recorder) Enabled() bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.enabled
}

// NextRequestID allocates the next request ID for threading one operation
// through guest → chain → backend → rank. IDs start at 1; 0 means "no
// request context" and is what a nil or disabled recorder hands out.
func (r *Recorder) NextRequestID() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.enabled {
		return 0
	}
	r.nextReq++
	return r.nextReq
}

// Record appends one completed span. Zero-duration spans are kept: a
// cache-served read is a real hop even when the model charges it nothing.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.enabled {
		return
	}
	r.events = append(r.events, ev)
}

// ObserveSpan adapts the recorder to simtime.SpanObserver: every tracked
// Span/Charge interval becomes an event in the lane of its category family
// ("phase:*" → phases, "op:*" → ops, "step:*" → steps). Totals per
// category therefore reconcile exactly with the simtime.Tracker.
func (r *Recorder) ObserveSpan(category string, start, end time.Duration) {
	if r == nil {
		return
	}
	cat, tid := "op", LaneOp
	switch {
	case strings.HasPrefix(category, "phase:"):
		cat, tid = "phase", LanePhase
	case strings.HasPrefix(category, "step:"):
		cat, tid = "step", LaneStep
	}
	r.Record(Event{
		Name:  strings.TrimPrefix(category, cat+":"),
		Cat:   cat,
		TID:   tid,
		Start: start,
		Dur:   end - start,
	})
}

// Events returns a copy of all recorded spans in execution order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// CategoryTotals sums recorded span durations per original category name
// (lane prefix restored), mirroring simtime.Tracker bookkeeping so tests
// can reconcile the two.
func (r *Recorder) CategoryTotals() map[string]time.Duration {
	totals := make(map[string]time.Duration)
	for _, ev := range r.Events() {
		switch ev.Cat {
		case "phase", "op", "step":
			totals[ev.Cat+":"+ev.Name] += ev.Dur
		}
	}
	return totals
}

// ChromeTraceJSON renders the recorded spans as Chrome trace-event JSON
// (the chrome://tracing / Perfetto "trace event" format): one complete
// ("X") event per span, timestamps in microseconds on the virtual clock,
// plus thread_name metadata naming the lanes. The output is deterministic:
// events appear in execution order and all numbers format with fixed
// precision, so identical runs export byte-identical traces.
func (r *Recorder) ChromeTraceJSON() []byte {
	var b strings.Builder
	b.WriteString(`{"traceEvents":[`)
	b.WriteString(`{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"vpim"}}`)
	for _, lane := range laneNames {
		fmt.Fprintf(&b, `,{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`,
			lane.tid, lane.name)
	}
	for _, ev := range r.Events() {
		fmt.Fprintf(&b, `,{"name":%q,"cat":%q,"ph":"X","ts":%s,"dur":%s,"pid":1,"tid":%d`,
			ev.Name, ev.Cat, usec(ev.Start), usec(ev.Dur), ev.TID)
		if ev.Req != 0 {
			fmt.Fprintf(&b, `,"args":{"req":%d}`, ev.Req)
		}
		b.WriteString("}")
	}
	b.WriteString("]}\n")
	return []byte(b.String())
}

// usec formats a virtual duration as microseconds with fixed millisecond
// precision (the trace-event unit), deterministically.
func usec(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Nanoseconds())/1e3)
}
