package prim

import (
	"encoding/binary"
	"testing"
)

func TestPadTo(t *testing.T) {
	tests := []struct{ n, align, want int }{
		{0, 8, 0}, {1, 8, 8}, {8, 8, 8}, {9, 8, 16}, {15, 2, 16}, {16, 2, 16},
	}
	for _, tc := range tests {
		if got := PadTo(tc.n, tc.align); got != tc.want {
			t.Errorf("PadTo(%d,%d) = %d, want %d", tc.n, tc.align, got, tc.want)
		}
	}
}

func TestU32U64Helpers(t *testing.T) {
	buf := make([]byte, 16)
	putU32At(buf, 1, 0xDEADBEEF)
	if u32At(buf, 1) != 0xDEADBEEF {
		t.Error("u32 round trip")
	}
	binary.LittleEndian.PutUint64(buf[8:], 0xCAFEBABE12345678)
	if u64At(buf, 1) != 0xCAFEBABE12345678 {
		t.Error("u64 round trip")
	}
}

func TestSortedU32(t *testing.T) {
	p := Params{Seed: 3}
	vals := sortedU32(p.Rand(), 1000)
	for i := 1; i < len(vals); i++ {
		if vals[i] < vals[i-1] {
			t.Fatal("not sorted")
		}
	}
}

func TestParamsDefaults(t *testing.T) {
	p := Params{}.withDefaults()
	if p.DPUs != 60 || p.Scale != 1 || p.Seed != 1 {
		t.Errorf("defaults: %+v", p)
	}
}

func TestLookupAndNames(t *testing.T) {
	names := Names()
	if len(names) != 16 {
		t.Fatalf("PrIM has 16 applications, got %d", len(names))
	}
	for _, n := range names {
		app, err := Lookup(n)
		if err != nil || app.Name != n {
			t.Errorf("Lookup(%q): %v", n, err)
		}
		if app.Run == nil || app.Domain == "" || app.Full == "" {
			t.Errorf("app %q incomplete", n)
		}
	}
	if _, err := Lookup("XX"); err == nil {
		t.Error("unknown app must fail")
	}
}
