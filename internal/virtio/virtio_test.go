package virtio

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/simtime"
)

func TestRequestRoundTrip(t *testing.T) {
	req := Request{
		Op:      OpWriteRank,
		DPU:     7,
		DPUMask: 0xDEADBEEF,
		Offset:  1 << 40,
		Length:  4096,
		Symbol:  "prim/va",
	}
	buf := make([]byte, req.EncodedSize())
	n, err := req.Encode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != req.EncodedSize() {
		t.Errorf("Encode wrote %d, want %d", n, req.EncodedSize())
	}
	got, err := DecodeRequest(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Errorf("round trip: got %+v, want %+v", got, req)
	}
}

// Property: every encodable request decodes to itself.
func TestRequestRoundTripProperty(t *testing.T) {
	f := func(op uint8, dpu uint32, mask, off, length uint64, symbol string) bool {
		if len(symbol) > 128 {
			symbol = symbol[:128]
		}
		req := Request{
			Op: Op(op), DPU: dpu, DPUMask: mask, Offset: off, Length: length,
			Symbol: symbol,
		}
		buf := make([]byte, req.EncodedSize())
		if _, err := req.Encode(buf); err != nil {
			return false
		}
		got, err := DecodeRequest(buf)
		return err == nil && got == req
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeBufferTooSmall(t *testing.T) {
	req := Request{Op: OpCI, Symbol: "x"}
	if _, err := req.Encode(make([]byte, 4)); err == nil {
		t.Error("want error for short buffer")
	}
}

func TestDecodeTruncated(t *testing.T) {
	if _, err := DecodeRequest(make([]byte, 8)); err == nil {
		t.Error("want error for truncated header")
	}
	// Symbol length overruns the buffer.
	req := Request{Op: OpCI, Symbol: "abcdef"}
	buf := make([]byte, req.EncodedSize())
	if _, err := req.Encode(buf); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRequest(buf[:len(buf)-2]); err == nil {
		t.Error("want error for symbol overrun")
	}
}

func TestConfigRoundTrip(t *testing.T) {
	cfg := DeviceConfig{
		NumDPUs:       60,
		FrequencyMHz:  350,
		MRAMBytes:     64 << 20,
		ClockDivision: 2,
		NumCIs:        8,
	}
	buf := make([]byte, ConfigResponseSize)
	if err := EncodeConfig(cfg, buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeConfig(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != cfg {
		t.Errorf("round trip: got %+v, want %+v", got, cfg)
	}
	if err := EncodeConfig(cfg, make([]byte, 4)); err == nil {
		t.Error("want error for short config buffer")
	}
	if _, err := DecodeConfig(make([]byte, 4)); err == nil {
		t.Error("want error for truncated config")
	}
}

func TestU64Helpers(t *testing.T) {
	buf := make([]byte, 24)
	if err := PutU64s(buf, []uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	for i, want := range []uint64{1, 2, 3} {
		got, err := GetU64(buf, i)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("GetU64(%d) = %d, want %d", i, got, want)
		}
	}
	if err := PutU64s(buf, make([]uint64, 4)); err == nil {
		t.Error("want error for short u64 buffer")
	}
	if _, err := GetU64(buf, 3); err == nil {
		t.Error("want error for out-of-range index")
	}
}

// counting returns a window handler that accepts every chain and adds the
// window's size to *n.
func counting(n *int) Handler {
	return func(chains []*Chain, tl *simtime.Timeline) []error {
		*n += len(chains)
		return make([]error, len(chains))
	}
}

// TestQueueSubmit exercises a synchronous submission: one chain staged and
// kicked alone, a window of depth one.
func TestQueueSubmit(t *testing.T) {
	q := NewQueue("transferq", 4)
	if q.Name() != "transferq" || q.Size() != 4 {
		t.Error("queue metadata wrong")
	}
	chain := &Chain{Descs: make([]Desc, 2)}
	if err := q.Stage(chain); !errors.Is(err, ErrNoHandler) {
		t.Errorf("want ErrNoHandler, got %v", err)
	}
	handled := 0
	q.SetHandler(counting(&handled))
	if err := q.Stage(chain); err != nil {
		t.Fatal(err)
	}
	errs, err := q.Kick(simtime.New())
	if err != nil || len(errs) != 1 || errs[0] != nil {
		t.Fatalf("kick: errs=%v err=%v", errs, err)
	}
	if handled != 1 || q.Submitted() != 1 || q.Kicks() != 1 {
		t.Errorf("handled=%d submitted=%d kicks=%d", handled, q.Submitted(), q.Kicks())
	}
	long := &Chain{Descs: make([]Desc, 5)}
	if err := q.Stage(long); !errors.Is(err, ErrChainTooLong) {
		t.Errorf("want ErrChainTooLong, got %v", err)
	}
	if q.Pending() != 0 {
		t.Errorf("rejected chain left %d pending", q.Pending())
	}
}

// TestQueueWindow exercises the pipelined path: staged chains accumulate on
// the avail ring without kicking, one Kick drains them all, and the used
// index catches up to avail.
func TestQueueWindow(t *testing.T) {
	q := NewQueue("transferq", 8)
	chain := func() *Chain { return &Chain{Descs: make([]Desc, 2)} }
	handled := 0
	q.SetHandler(counting(&handled))
	if err := q.Stage(&Chain{Descs: make([]Desc, 9)}); !errors.Is(err, ErrChainTooLong) {
		t.Errorf("want ErrChainTooLong, got %v", err)
	}
	for i := 0; i < 4; i++ {
		if err := q.Stage(chain()); err != nil {
			t.Fatal(err)
		}
	}
	if q.Pending() != 4 || q.Kicks() != 0 || handled != 0 {
		t.Fatalf("after staging: pending=%d kicks=%d handled=%d", q.Pending(), q.Kicks(), handled)
	}
	errs, err := q.Kick(simtime.New())
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) != 4 {
		t.Fatalf("want 4 error slots, got %d", len(errs))
	}
	for i, e := range errs {
		if e != nil {
			t.Errorf("chain %d: %v", i, e)
		}
	}
	if handled != 4 || q.Submitted() != 4 || q.Kicks() != 1 || q.Pending() != 0 {
		t.Errorf("handled=%d submitted=%d kicks=%d pending=%d",
			handled, q.Submitted(), q.Kicks(), q.Pending())
	}
	// Empty drain is a no-op.
	errs, err = q.Kick(simtime.New())
	if err != nil || errs != nil {
		t.Errorf("empty drain: errs=%v err=%v", errs, err)
	}
	if q.Kicks() != 1 {
		t.Errorf("empty drain must not kick: kicks=%d", q.Kicks())
	}
}

// TestQueueWindowFaultIsolation plants a fault on one mid-window chain and
// asserts it fails alone: the other chains complete, the drain does not
// wedge, and every chain still lands on the used ring.
func TestQueueWindowFaultIsolation(t *testing.T) {
	q := NewQueue("transferq", 8)
	var handledChains []*Chain
	q.SetHandler(func(chains []*Chain, tl *simtime.Timeline) []error {
		handledChains = append(handledChains, chains...)
		return make([]error, len(chains))
	})
	chains := make([]*Chain, 4)
	for i := range chains {
		chains[i] = &Chain{Descs: make([]Desc, 2)}
		if err := q.Stage(chains[i]); err != nil {
			t.Fatal(err)
		}
	}
	victim := chains[1]
	q.SetFault(func(queue string, c *Chain) error {
		if c == victim {
			return errors.New("planted")
		}
		return nil
	})
	errs, err := q.Kick(simtime.New())
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) != 4 {
		t.Fatalf("want 4 error slots, got %d", len(errs))
	}
	for i, e := range errs {
		if i == 1 {
			if !errors.Is(e, ErrDeviceFailed) {
				t.Errorf("victim chain: want ErrDeviceFailed, got %v", e)
			}
			continue
		}
		if e != nil {
			t.Errorf("chain %d should survive, got %v", i, e)
		}
	}
	if len(handledChains) != 3 {
		t.Fatalf("want 3 surviving chains handled, got %d", len(handledChains))
	}
	for _, c := range handledChains {
		if c == victim {
			t.Error("faulted chain reached the handler")
		}
	}
	if q.Submitted() != 4 || q.Kicks() != 1 {
		t.Errorf("submitted=%d kicks=%d", q.Submitted(), q.Kicks())
	}
}

// TestQueueWindowHandler verifies the handler receives the surviving chains
// in one call and its per-chain errors map back to the right slots.
func TestQueueWindowHandler(t *testing.T) {
	q := NewQueue("transferq", 8)
	calls := 0
	q.SetHandler(func(chains []*Chain, tl *simtime.Timeline) []error {
		calls++
		errs := make([]error, len(chains))
		for i := range chains {
			if len(chains[i].Descs) == 3 {
				errs[i] = errors.New("bad chain")
			}
		}
		return errs
	})
	for _, n := range []int{2, 3, 2} {
		if err := q.Stage(&Chain{Descs: make([]Desc, n)}); err != nil {
			t.Fatal(err)
		}
	}
	errs, err := q.Kick(simtime.New())
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("window handler called %d times, want 1", calls)
	}
	if errs[0] != nil || errs[1] == nil || errs[2] != nil {
		t.Errorf("error mapping wrong: %v", errs)
	}
}

func TestOpString(t *testing.T) {
	names := map[Op]string{
		OpConfig: "config", OpCI: "ci", OpLoadProgram: "load", OpLaunch: "launch",
		OpWriteRank: "write-rank", OpReadRank: "read-rank", OpSymWrite: "sym-write",
		OpSymRead: "sym-read", OpRelease: "release", OpAttach: "attach",
	}
	for op, want := range names {
		if op.String() != want {
			t.Errorf("%d.String() = %q, want %q", op, op.String(), want)
		}
	}
	if Op(99).String() != "op(99)" {
		t.Error("unknown op format wrong")
	}
}

func TestSpecConstants(t *testing.T) {
	if DeviceID != 42 {
		t.Error("the spec assigns virtio device ID 42")
	}
	if TransferQueueSize != 512 {
		t.Error("transferq has 512 slots per the spec")
	}
	// A full 64-DPU matrix must fit: 1 header + 1 matrix meta + 64*2 + 1
	// status = 131 <= MaxMatrixBuffers + header + status budget.
	if MaxMatrixBuffers < 130 {
		t.Error("matrix buffer ceiling below the spec's 130")
	}
}
