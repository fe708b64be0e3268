package ecmp

import (
	"math"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"

	"rpingmesh/internal/topo"
)

func addr(a, b, c, d byte) netip.Addr { return netip.AddrFrom4([4]byte{a, b, c, d}) }

func TestRoCETuple(t *testing.T) {
	ft := RoCETuple(addr(10, 0, 0, 1), addr(10, 0, 0, 2), 5555)
	if ft.DstPort != 4791 || ft.Proto != 17 {
		t.Fatalf("RoCE tuple has wrong constants: %v", ft)
	}
	if ft.String() != "10.0.0.1:5555>10.0.0.2:4791/17" {
		t.Fatalf("String = %q", ft.String())
	}
}

func TestHasherDeterministic(t *testing.T) {
	ft := RoCETuple(addr(10, 0, 0, 1), addr(10, 0, 0, 2), 5555)
	h := ft.Hasher()
	for i := 0; i < 10; i++ {
		if h.Choose("tor-0-0", 8) != h.Choose("tor-0-0", 8) {
			t.Fatal("Hasher not deterministic")
		}
	}
}

func TestHasherPerSwitchIndependence(t *testing.T) {
	// Across many tuples, the joint distribution over two switches should
	// hit all combinations — i.e. choices are not perfectly correlated.
	seen := map[[2]int]bool{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		ft := RoCETuple(addr(10, 0, 0, byte(rng.Intn(250)+1)), addr(10, 0, 1, byte(rng.Intn(250)+1)), uint16(rng.Intn(60000)))
		h := ft.Hasher()
		seen[[2]int{h.Choose("sw-a", 4), h.Choose("sw-b", 4)}] = true
	}
	if len(seen) != 16 {
		t.Fatalf("joint choices hit %d/16 combinations", len(seen))
	}
}

func TestHasherUniformity(t *testing.T) {
	counts := make([]int, 8)
	rng := rand.New(rand.NewSource(2))
	const trials = 8000
	for i := 0; i < trials; i++ {
		ft := RoCETuple(addr(10, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(250)+1)), addr(10, 9, 9, 9), uint16(rng.Intn(60000)))
		counts[ft.Hasher().Choose("spine-1", 8)]++
	}
	for b, c := range counts {
		ratio := float64(c) / (trials / 8)
		if ratio < 0.8 || ratio > 1.2 {
			t.Fatalf("bucket %d has %d hits (ratio %.2f), distribution skewed: %v", b, c, ratio, counts)
		}
	}
}

func TestHasherSatisfiesTopoInterface(t *testing.T) {
	var _ topo.Hasher = RoCETuple(addr(1, 2, 3, 4), addr(5, 6, 7, 8), 9).Hasher()
}

func TestCoverageProbabilityEdges(t *testing.T) {
	if CoverageProbability(0, 5) != 1 {
		t.Fatal("N=0 should be trivially covered")
	}
	if CoverageProbability(4, 3) != 0 {
		t.Fatal("k<N cannot cover")
	}
	if got := CoverageProbability(1, 1); got != 1 {
		t.Fatalf("N=1,k=1 coverage = %v, want 1", got)
	}
	// N=2, k=2: P = 1 - 2*(1/2)^2 = 0.5.
	if got := CoverageProbability(2, 2); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("N=2,k=2 coverage = %v, want 0.5", got)
	}
	// N=2, k=3: 1 - 2*(1/2)^3 = 0.75.
	if got := CoverageProbability(2, 3); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("N=2,k=3 coverage = %v, want 0.75", got)
	}
}

func TestCoverageMatchesMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct{ n, k int }{{4, 8}, {8, 20}, {16, 60}} {
		const trials = 20000
		hits := 0
		for tr := 0; tr < trials; tr++ {
			var mask uint64
			for i := 0; i < tc.k; i++ {
				mask |= 1 << uint(rng.Intn(tc.n))
			}
			if mask == (1<<uint(tc.n))-1 {
				hits++
			}
		}
		mc := float64(hits) / trials
		an := CoverageProbability(tc.n, tc.k)
		if math.Abs(mc-an) > 0.02 {
			t.Fatalf("N=%d k=%d: analytic %.4f vs monte-carlo %.4f", tc.n, tc.k, an, mc)
		}
	}
}

func TestTuplesForCoverage(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		k := TuplesForCoverage(n, 0.99)
		if k < n {
			t.Fatalf("N=%d: k=%d < N", n, k)
		}
		if p := CoverageProbability(n, k); p < 0.99 {
			t.Fatalf("N=%d: k=%d gives coverage %.4f < 0.99", n, k, p)
		}
		if k > n && CoverageProbability(n, k-1) >= 0.99 {
			t.Fatalf("N=%d: k=%d not minimal (k-1 already covers)", n, k)
		}
	}
}

func TestTuplesForCoverageEdges(t *testing.T) {
	if TuplesForCoverage(0, 0.99) != 1 {
		t.Fatalf("N=0 -> %d, want 1", TuplesForCoverage(0, 0.99))
	}
	if TuplesForCoverage(1, 0.99) != 1 {
		t.Fatal("N=1 should need exactly 1 tuple")
	}
	if TuplesForCoverage(8, 0) != 8 {
		t.Fatal("p<=0 should return N")
	}
	if k := TuplesForCoverage(8, 1); k < TuplesForCoverage(8, 0.999) {
		t.Fatal("p=1 should be clamped, not explode")
	}
}

// Property: k is monotone in both N and p.
func TestPropertyTuplesMonotone(t *testing.T) {
	f := func(nRaw uint8, pRaw uint8) bool {
		n := int(nRaw%48) + 2
		p := 0.5 + float64(pRaw%45)/100.0 // 0.50 .. 0.94
		k1 := TuplesForCoverage(n, p)
		k2 := TuplesForCoverage(n, p+0.04)
		k3 := TuplesForCoverage(n+1, p)
		return k2 >= k1 && k3 >= k1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: random k tuples really do cover all N parallel paths of a CLOS
// pair with roughly the promised probability (end-to-end with topo.Route).
func TestEquationOneOnRealTopology(t *testing.T) {
	tp, err := topo.BuildClos(topo.ClosConfig{Pods: 2, ToRsPerPod: 2, AggsPerPod: 4, Spines: 4, HostsPerToR: 1, RNICsPerHost: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := tp.RNICsUnderToR("tor-0-0")[0]
	b := tp.RNICsUnderToR("tor-1-0")[0]
	n := tp.ParallelPaths("tor-0-0", "tor-1-0")
	k := TuplesForCoverage(n, 0.99)
	rng := rand.New(rand.NewSource(7))
	const trials = 300
	covered := 0
	srcIP := tp.RNICs[a].IP
	dstIP := tp.RNICs[b].IP
	for tr := 0; tr < trials; tr++ {
		paths := map[string]bool{}
		for i := 0; i < k; i++ {
			ft := RoCETuple(srcIP, dstIP, uint16(rng.Intn(60000)+1024))
			path, err := tp.Route(a, b, ft.Hasher())
			if err != nil {
				t.Fatal(err)
			}
			key := ""
			for _, l := range path {
				key += string(rune(l)) // dense link ids as key
			}
			paths[key] = true
		}
		if len(paths) == n {
			covered++
		}
	}
	rate := float64(covered) / trials
	if rate < 0.95 {
		t.Fatalf("k=%d tuples covered all %d paths in only %.0f%% of trials", k, n, rate*100)
	}
}

func BenchmarkTuplesForCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		TuplesForCoverage(64, 0.99)
	}
}

func BenchmarkHasher(b *testing.B) {
	ft := RoCETuple(addr(10, 0, 0, 1), addr(10, 0, 0, 2), 5555)
	h := ft.Hasher()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Choose("spine-3", 8)
	}
}
