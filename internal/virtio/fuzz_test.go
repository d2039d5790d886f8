package virtio

import (
	"encoding/binary"
	"testing"
)

// decodeRequestSeeds is the shared seed corpus for the request parser: one
// valid encoding plus adversarial variants (truncated fixed header, symbol
// lengths overrunning the buffer, saturated length fields) that the decoder
// must reject with an error, never a panic or out-of-bounds read.
func decodeRequestSeeds(tb testing.TB) (valid []byte, adversarial [][]byte) {
	tb.Helper()
	seed := Request{Op: OpWriteRank, DPU: 3, DPUMask: 0xFF, Offset: 64, Length: 4096, Symbol: "prim/va"}
	valid = make([]byte, seed.EncodedSize())
	if _, err := seed.Encode(valid); err != nil {
		tb.Fatal(err)
	}
	truncated := append([]byte(nil), valid[:headerFixed-1]...)
	// Symbol length one past the bytes actually present.
	overrunByOne := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(overrunByOne[32:], uint32(len(valid)-headerFixed+1))
	// Saturated symbol length against a minimal buffer.
	saturated := append([]byte(nil), valid[:headerFixed]...)
	binary.LittleEndian.PutUint32(saturated[32:], ^uint32(0))
	adversarial = [][]byte{
		{},
		truncated,
		overrunByOne,
		saturated,
	}
	return valid, adversarial
}

// TestDecodeRequestSeedCorpus pins the corpus behavior down in a plain unit
// test, so every `go test` run exercises the adversarial encodings even when
// the fuzz engine is not invoked.
func TestDecodeRequestSeedCorpus(t *testing.T) {
	valid, adversarial := decodeRequestSeeds(t)
	req, err := DecodeRequest(valid)
	if err != nil {
		t.Fatalf("valid seed must decode: %v", err)
	}
	if req.Symbol != "prim/va" || req.Length != 4096 {
		t.Errorf("decoded %+v, want the encoded fields back", req)
	}
	for i, data := range adversarial {
		if _, err := DecodeRequest(data); err == nil {
			t.Errorf("adversarial seed %d (len %d) decoded without error", i, len(data))
		}
	}
}

// FuzzDecodeRequest hardens the backend's request parser against arbitrary
// guest bytes: a malicious or buggy guest driver must produce an error, not
// a panic or an out-of-bounds read.
func FuzzDecodeRequest(f *testing.F) {
	valid, adversarial := decodeRequestSeeds(f)
	f.Add(valid)
	f.Add(make([]byte, headerFixed))
	for _, data := range adversarial {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(data)
		if err != nil {
			return
		}
		// A successful decode must re-encode losslessly.
		out := make([]byte, req.EncodedSize())
		if _, err := req.Encode(out); err != nil {
			t.Fatalf("re-encode of decoded request failed: %v", err)
		}
		back, err := DecodeRequest(out)
		if err != nil || back != req {
			t.Fatalf("decode(encode(x)) != x: %+v vs %+v (%v)", back, req, err)
		}
	})
}

// FuzzDecodeConfig covers the configuration response parser.
func FuzzDecodeConfig(f *testing.F) {
	buf := make([]byte, ConfigResponseSize)
	if err := EncodeConfig(DeviceConfig{NumDPUs: 64, FrequencyMHz: 350, MRAMBytes: 64 << 20}, buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf)
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := DecodeConfig(data)
		if err != nil {
			return
		}
		out := make([]byte, ConfigResponseSize)
		if err := EncodeConfig(cfg, out); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
	})
}
