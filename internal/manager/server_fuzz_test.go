package manager

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"testing"
	"time"
)

// One fuzz step is one input byte: b%6 picks the step kind, (b/6)%4 the
// owner and (b/24)%4 the rank (or, for a malformed step, which bad line).
const (
	stepAlloc = iota
	stepRelease
	stepStates
	stepMetrics
	stepMalformed
	stepTick
	stepKinds
)

var (
	fuzzOwners    = [...]string{"A", "B", "C", ""}
	fuzzRanks     = [...]int{-1, 0, 1, 99}
	fuzzMalformed = [...]string{
		`{"op":`,
		`not json`,
		`{"op":"release","owner":"A","rank":"0"}`,
		`{"op":"evict","owner":"A"}`,
	}
)

// fuzzStep encodes one step for the seed corpus; owner and rank index
// fuzzOwners and fuzzRanks.
func fuzzStep(kind, owner, rank int) byte {
	return byte(kind + stepKinds*owner + stepKinds*len(fuzzOwners)*rank)
}

// FuzzServerRequest drives one connection to a live Server on a 2-rank
// manager through up to 32 steps: alloc, release, states and metrics for an
// owner and a rank drawn from small sets, a malformed line, and an observer
// tick (ProcessResets). A model of who holds which rank is built from the
// replies alone. After every step the reply must decode; an alloc by an
// owner must succeed exactly when the model has a rank free; a release must
// succeed exactly when the model says that owner holds that rank; the
// states and metrics replies and the manager's owner column must agree with
// the model. An exhausted alloc returns at once (one 1 µs poll).
func FuzzServerRequest(f *testing.F) {
	const (
		a, b, c, none     = 0, 1, 2, 3
		rNeg, r0, r1, r99 = 0, 1, 2, 3
	)
	for _, seed := range [][]byte{
		// B releases the rank A holds.
		{fuzzStep(stepAlloc, a, r0), fuzzStep(stepRelease, b, r0), fuzzStep(stepStates, a, r0)},
		// Both ranks held, C exhausted, A's rank reset and handed to C.
		{fuzzStep(stepAlloc, a, r0), fuzzStep(stepAlloc, b, r0), fuzzStep(stepAlloc, c, r0),
			fuzzStep(stepRelease, a, r0), fuzzStep(stepTick, a, r0), fuzzStep(stepAlloc, c, r0),
			fuzzStep(stepStates, a, r0), fuzzStep(stepMetrics, a, r0)},
		// Requests without an owner, and ranks that do not exist.
		{fuzzStep(stepAlloc, none, r0), fuzzStep(stepRelease, none, r0), fuzzStep(stepAlloc, a, r0),
			fuzzStep(stepRelease, none, r0), fuzzStep(stepRelease, a, r99), fuzzStep(stepRelease, a, rNeg)},
		// Every malformed line, then a well-formed request on the same
		// connection.
		{fuzzStep(stepMalformed, a, rNeg), fuzzStep(stepMalformed, a, r0), fuzzStep(stepMalformed, a, r1),
			fuzzStep(stepMalformed, a, r99), fuzzStep(stepStates, a, r0)},
		// A double release, and one owner holding both ranks.
		{fuzzStep(stepAlloc, a, r0), fuzzStep(stepRelease, a, r0), fuzzStep(stepRelease, a, r0),
			fuzzStep(stepAlloc, a, r0), fuzzStep(stepAlloc, a, r0), fuzzStep(stepRelease, a, r1),
			fuzzStep(stepTick, a, r0), fuzzStep(stepMetrics, a, r0)},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		mgr, sock := serveTestManager(t, 2, Options{Retries: 1, RetryTimeout: time.Microsecond})
		conn, err := net.Dial("unix", sock)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		// A hang fails the read instead of the whole fuzz run.
		if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
			t.Fatal(err)
		}
		replies := bufio.NewReader(conn)
		roundTrip := func(line string) Response {
			t.Helper()
			if _, err := fmt.Fprintln(conn, line); err != nil {
				t.Fatalf("send %s: %v", line, err)
			}
			reply, err := replies.ReadBytes('\n')
			if err != nil {
				t.Fatalf("no reply to %s: %v", line, err)
			}
			var resp Response
			if err := json.Unmarshal(reply, &resp); err != nil {
				t.Fatalf("reply %q to %s does not decode: %v", reply, line, err)
			}
			return resp
		}
		send := func(req Request) Response {
			t.Helper()
			line, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			return roundTrip(string(line))
		}

		held := make(map[int]string) // rank -> owner, from the replies
		var grants, releases int64
		for i, by := range data[:min(len(data), 32)] {
			kind := int(by) % stepKinds
			owner := fuzzOwners[int(by)/stepKinds%len(fuzzOwners)]
			sel := int(by) / (stepKinds * len(fuzzOwners)) % len(fuzzRanks)
			rank := fuzzRanks[sel]
			switch kind {
			case stepAlloc:
				resp := send(Request{Op: "alloc", Owner: owner})
				if want := owner != "" && len(held) < 2; resp.OK != want {
					t.Fatalf("step %d: alloc for %q = %+v, want ok=%v (held %v)", i, owner, resp, want, held)
				}
				if resp.OK {
					if _, taken := held[resp.Rank]; taken || resp.Rank < 0 || resp.Rank > 1 {
						t.Fatalf("step %d: alloc for %q granted rank %d (held %v)", i, owner, resp.Rank, held)
					}
					held[resp.Rank] = owner
					grants++
				}
			case stepRelease:
				resp := send(Request{Op: "release", Owner: owner, Rank: rank})
				holder, ok := held[rank]
				if want := ok && holder == owner; resp.OK != want {
					t.Fatalf("step %d: release of rank %d by %q = %+v, want ok=%v (held %v)", i, rank, owner, resp, want, held)
				}
				if resp.OK {
					delete(held, rank)
					releases++
				}
			case stepStates:
				resp := send(Request{Op: "states"})
				if !resp.OK || len(resp.States) != 2 {
					t.Fatalf("step %d: states = %+v", i, resp)
				}
				for r, st := range resp.States {
					if _, ok := held[r]; ok != (st == "ALLO") {
						t.Fatalf("step %d: rank %d is %s (held %v)", i, r, st, held)
					}
				}
			case stepMetrics:
				resp := send(Request{Op: "metrics"})
				if !resp.OK || resp.Metrics["manager.allocs.granted"] != grants || resp.Metrics["manager.releases"] != releases {
					t.Fatalf("step %d: metrics = %+v, want %d grants and %d releases", i, resp, grants, releases)
				}
			case stepMalformed:
				if resp := roundTrip(fuzzMalformed[sel]); resp.OK || resp.Error == "" {
					t.Fatalf("step %d: %s = %+v, want an error reply", i, fuzzMalformed[sel], resp)
				}
			case stepTick:
				mgr.ProcessResets()
			}
			for r, o := range mgr.Owners() {
				if o != held[r] {
					t.Fatalf("step %d: manager owners %q, model %v", i, mgr.Owners(), held)
				}
			}
		}
	})
}
