package main

import (
	"reflect"
	"testing"
	"time"
)

// runSteps sets up workload name from seed 7 and runs steps steps on it.
func runSteps(t *testing.T, name string, steps int, tr *tracer) state {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := w.newInstance(7, modeVPIM, tr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < steps; i++ {
		for _, r := range inst.step(i) {
			if r.err != nil {
				t.Fatalf("%s step %d: %v", name, i, r.err)
			}
		}
	}
	return inst.state()
}

// checkInvisible runs the same steps with and without the timing
// decorators. The readback digest, the virtual clocks and Tracker
// categories, and the obs and manager counter snapshots must be identical,
// and the traced run must actually have recorded its ops.
func checkInvisible(t *testing.T, name string, steps int) {
	plain := runSteps(t, name, steps, nil)
	tr := newTracer(0)
	traced := runSteps(t, name, steps, tr)
	if d := diff(plain, traced); len(d) > 0 {
		t.Fatalf("%s: decorators changed the run: %v", name, d)
	}
	if plain.virt[clockKey] == 0 || len(plain.counters) == 0 {
		t.Fatalf("%s: nothing to compare: %v", name, plain)
	}
	if tr.ops != int64(steps) || len(tr.calls) == 0 {
		t.Fatalf("%s: traced %d ops with %d call kinds, want %d ops", name, tr.ops, len(tr.calls), steps)
	}
}

// TestDecoratorsInvisiblePrim runs VA natively and under vPIM: both
// environments' sets go through the wrapped devices.
func TestDecoratorsInvisiblePrim(t *testing.T) {
	checkInvisible(t, "prim-fig8", 2)
}

func TestDecoratorsInvisibleBulk(t *testing.T) {
	checkInvisible(t, "xfer-bulk", 1)
}

func TestDecoratorsInvisibleSmall(t *testing.T) {
	checkInvisible(t, "xfer-small", 500)
}

// TestSelfTimesShareOverlap pins the attribution rule: root time outside
// every child is the root's, overlapping children split their overlap, and
// the layers add up to the root's duration.
func TestSelfTimesShareOverlap(t *testing.T) {
	spans := []span{
		{Layer: layerPrim, Start: 0, End: 100},
		{Layer: layerDriver, Start: 10, End: 50},
		{Layer: layerDriver, Start: 30, End: 70},
		{Layer: layerPim, Start: 80, End: 90},
	}
	got := selfTimes(spans)
	want := map[string]int64{layerPrim: 30, layerDriver: 60, layerPim: 10}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

// TestThroughputMedianChunk checks that one slow chunk does not move
// ops_per_s: nine chunks run at 10 ops/s and one at 1 op/s.
func TestThroughputMedianChunk(t *testing.T) {
	var ls loopStats
	at := time.Duration(0)
	for i := 1; i <= 100; i++ {
		step := 100 * time.Millisecond
		if i > 50 && i <= 60 {
			step = time.Second
		}
		at += step
		ls.marks = append(ls.marks, at)
		ls.opsAt = append(ls.opsAt, i)
	}
	if got := ls.throughput(); got != 10 {
		t.Fatalf("throughput = %v, want 10", got)
	}
}
