package ecmp

import (
	"math"
	"net/netip"
	"testing"
	"testing/quick"

	"rpingmesh/internal/topo"
)

// Property: the hash choice is a pure function of (tuple, switch) — any
// two Hasher instances for the same tuple agree everywhere.
func TestPropertyHasherPure(t *testing.T) {
	f := func(a, b, c, d byte, port uint16, sw string, n uint8) bool {
		if n == 0 {
			n = 1
		}
		ft := RoCETuple(netip.AddrFrom4([4]byte{10, a, b, c}), netip.AddrFrom4([4]byte{10, c, b, d}), port)
		h1 := ft.Hasher()
		h2 := ft.Hasher()
		dev := topo.DeviceID(sw)
		return h1.Choose(dev, int(n)) == h2.Choose(dev, int(n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the forward tuple and its reverse hash independently (no
// accidental symmetry forcing ACKs onto the probe's path).
func TestReverseHashesIndependently(t *testing.T) {
	differs := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		ft := RoCETuple(
			netip.AddrFrom4([4]byte{10, 0, byte(i), 1}),
			netip.AddrFrom4([4]byte{10, 1, byte(i), 2}),
			uint16(2000+i))
		if ft.Hasher().Choose("sw", 8) != ft.reverse().Hasher().Choose("sw", 8) {
			differs++
		}
	}
	// Independence ⇒ they agree about 1/8 of the time, differ ~7/8.
	if differs < trials/2 {
		t.Fatalf("reverse hash correlated with forward: only %d/%d differ", differs, trials)
	}
}

// Property: CoverageProbability is monotone in k and bounded in [0,1].
func TestPropertyCoverageMonotoneInK(t *testing.T) {
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw%32) + 1
		k := int(kRaw%128) + n
		p1 := CoverageProbability(n, k)
		p2 := CoverageProbability(n, k+1)
		if p1 < 0 || p1 > 1 || p2 < 0 || p2 > 1 {
			return false
		}
		return p2 >= p1-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// CoverageProbability approaches 1 as k grows.
func TestCoverageLimit(t *testing.T) {
	for _, n := range []int{2, 8, 32} {
		if p := CoverageProbability(n, n*100); p < 0.9999 {
			t.Fatalf("N=%d k=%d coverage %v, want ≈1", n, n*100, p)
		}
	}
}

// Numerical stability at large N: no NaN/Inf from the inclusion-exclusion.
func TestLargeNStability(t *testing.T) {
	for _, n := range []int{128, 256, 512} {
		k := TuplesForCoverage(n, 0.99)
		p := CoverageProbability(n, k)
		if math.IsNaN(p) || math.IsInf(p, 0) || p < 0.99 {
			t.Fatalf("N=%d: k=%d coverage=%v", n, k, p)
		}
	}
}
