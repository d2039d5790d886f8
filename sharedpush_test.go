package vpim_test

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"

	vpim "repro"
)

// TestSharedPushStoresOnce pushes one 1 MiB buffer to 60 DPUs through each
// path that stores such a push once: the full variant's matrix rows, its
// broadcast row, and the native rank write. Checksum must then be
// bit-exact, the push must not allocate a replica per DPU, and DPU 0's
// result, written inside the shared input, must not show on the other
// DPUs. A push of 60 distinct buffers must give each DPU its own bytes.
func TestSharedPushStoresOnce(t *testing.T) {
	const dpus, size, words = 60, 1 << 20, 1 << 18
	bcast := vpim.FullOptions()
	bcast.Bcast = true
	for _, tc := range []struct {
		name string
		env  func(h *vpim.Host) (vpim.Env, error)
	}{
		{"vPIM", func(h *vpim.Host) (vpim.Env, error) {
			return h.NewVM(vpim.VMConfig{Name: "full", Options: vpim.FullOptions()})
		}},
		{"vPIM-bcast", func(h *vpim.Host) (vpim.Env, error) {
			return h.NewVM(vpim.VMConfig{Name: "bcast", Options: bcast})
		}},
		{"native", func(h *vpim.Host) (vpim.Env, error) { return h.NativeEnv(), nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			host, err := vpim.NewHost(vpim.HostConfig{DPUsPerRank: dpus, MRAMBytes: 4 << 20})
			if err != nil {
				t.Fatal(err)
			}
			if err := vpim.RegisterWorkloads(host); err != nil {
				t.Fatal(err)
			}
			env, err := tc.env(host)
			if err != nil {
				t.Fatal(err)
			}
			set, err := env.AllocSet(dpus)
			if err != nil {
				t.Fatal(err)
			}
			if err := set.Load("upmem/checksum"); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			alloc := func() vpim.Buffer {
				t.Helper()
				buf, err := env.AllocBuffer(size)
				if err != nil {
					t.Fatal(err)
				}
				rng.Read(buf.Data)
				return buf
			}
			// setN sets the words one DPU sums, or every DPU for dpu -1.
			setN := func(dpu int, n uint32) {
				t.Helper()
				var b [4]byte
				binary.LittleEndian.PutUint32(b[:], n)
				var err error
				if dpu < 0 {
					err = set.BroadcastSym("ck_n", 0, b[:])
				} else {
					err = set.CopyToSym(dpu, "ck_n", 0, b[:])
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			res, err := env.AllocBuffer(8)
			if err != nil {
				t.Fatal(err)
			}
			// result reads the checksum DPU d wrote after its n input words.
			result := func(d, n int) uint64 {
				t.Helper()
				if err := set.CopyFromMRAM(d, int64(4*n), res, 8); err != nil {
					t.Fatal(err)
				}
				return binary.LittleEndian.Uint64(res.Data)
			}
			push := func(bufs func(d int) vpim.Buffer) uint64 {
				t.Helper()
				for d := 0; d < dpus; d++ {
					if err := set.PrepareXfer(d, bufs(d)); err != nil {
						t.Fatal(err)
					}
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if err := set.PushXfer(vpim.ToDPU, 0, size); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				if err := set.Launch(); err != nil {
					t.Fatal(err)
				}
				return after.TotalAlloc - before.TotalAlloc
			}

			// One shared buffer. DPU 0 sums half of it, so its kernel
			// writes the result inside the input every DPU shares.
			in := alloc()
			setN(-1, words)
			setN(0, words/2)
			if grew := push(func(int) vpim.Buffer { return in }); grew >= 3<<20 {
				t.Errorf("pushing one 1 MiB buffer to %d DPUs allocated %d KiB, want < 3 MiB", dpus, grew>>10)
			}
			half, full := sum(in.Data[:size/2]), sum(in.Data)
			if got := result(0, words/2); got != half {
				t.Errorf("dpu 0 checksum = %#x, want %#x", got, half)
			}
			for d := 1; d < dpus; d++ {
				if got := result(d, words); got != full {
					t.Errorf("dpu %d checksum = %#x, want %#x", d, got, full)
				}
			}
			want0 := bytes.Clone(in.Data)
			binary.LittleEndian.PutUint64(want0[size/2:], half)
			back, err := env.AllocBuffer(size)
			if err != nil {
				t.Fatal(err)
			}
			for d := 0; d < dpus; d++ {
				if err := set.CopyFromMRAM(d, 0, back, size); err != nil {
					t.Fatal(err)
				}
				want := in.Data
				if d == 0 {
					want = want0
				}
				if !bytes.Equal(back.Data, want) {
					t.Errorf("dpu %d: MRAM does not hold the pushed input and its own result only", d)
				}
			}

			// 60 distinct buffers of the same shape.
			ins := make([]vpim.Buffer, dpus)
			for d := range ins {
				ins[d] = alloc()
			}
			setN(-1, words)
			push(func(d int) vpim.Buffer { return ins[d] })
			for d := range ins {
				if got, want := result(d, words), sum(ins[d].Data); got != want {
					t.Errorf("distinct buffers: dpu %d checksum = %#x, want %#x", d, got, want)
				}
			}
			if err := set.Free(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// sum adds the little-endian 32-bit words of b, as the checksum kernel does.
func sum(b []byte) uint64 {
	var s uint64
	for i := 0; i+4 <= len(b); i += 4 {
		s += uint64(binary.LittleEndian.Uint32(b[i:]))
	}
	return s
}
