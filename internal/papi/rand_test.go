package papi

import "testing"

// TestRandDeterministic pins the stream: equal seeds must produce equal
// sequences (that is the whole point), and the first values are pinned so
// an accidental algorithm change cannot slip through as "still
// deterministic, just different".
func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at %d: %d vs %d", i, av, bv)
		}
	}
	r := NewRand(1)
	want := []uint64{0x910a2dec89025cc1, 0xbeeb8da1658eec67, 0xf893a2eefb32555e}
	for i, w := range want {
		if got := r.Uint64(); got != w {
			t.Fatalf("SplitMix64(seed=1) value %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestRandIntn(t *testing.T) {
	r := NewRand(7)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) hit %d distinct values in 1000 draws, want 10", len(seen))
	}
	if v := NewRand(3).Int63(); v < 0 {
		t.Fatalf("Int63 returned negative %d", v)
	}
}
