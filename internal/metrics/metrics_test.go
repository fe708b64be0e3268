package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestDistributionEmpty(t *testing.T) {
	d := NewDistribution()
	if d.Count() != 0 || d.Mean() != 0 || d.Min() != 0 || d.Max() != 0 || d.P50() != 0 {
		t.Fatalf("empty distribution not all-zero: %+v", d.Summarize())
	}
}

func TestDistributionExactSmall(t *testing.T) {
	d := NewDistribution()
	for _, v := range []float64{5, 1, 3, 2, 4} {
		d.Add(v)
	}
	if d.Count() != 5 {
		t.Fatalf("Count = %d", d.Count())
	}
	if d.Mean() != 3 {
		t.Fatalf("Mean = %v", d.Mean())
	}
	if d.Min() != 1 || d.Max() != 5 {
		t.Fatalf("Min/Max = %v/%v", d.Min(), d.Max())
	}
	if d.P50() != 3 {
		t.Fatalf("P50 = %v", d.P50())
	}
	if got := d.Quantile(0); got != 1 {
		t.Fatalf("Q(0) = %v", got)
	}
	if got := d.Quantile(1); got != 5 {
		t.Fatalf("Q(1) = %v", got)
	}
	// Interpolation: Q(0.25) on [1..5] = 2.
	if got := d.Quantile(0.25); got != 2 {
		t.Fatalf("Q(0.25) = %v", got)
	}
	// Q(0.125): pos=0.5 between 1 and 2 -> 1.5.
	if got := d.Quantile(0.125); got != 1.5 {
		t.Fatalf("Q(0.125) = %v", got)
	}
}

func TestDistributionAddAfterQuantile(t *testing.T) {
	d := NewDistribution()
	d.Add(10)
	_ = d.P50()
	d.Add(1)
	d.Add(2)
	if d.P50() != 2 {
		t.Fatalf("P50 after interleaved adds = %v, want 2", d.P50())
	}
}

func TestDistributionReservoirAccuracy(t *testing.T) {
	d := NewDistributionSize(2000, 42)
	rng := rand.New(rand.NewSource(9))
	const n = 200000
	for i := 0; i < n; i++ {
		d.Add(rng.Float64() * 100) // uniform [0,100)
	}
	if d.Count() != n {
		t.Fatalf("Count = %d", d.Count())
	}
	for _, tc := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}} {
		got := d.Quantile(tc.q)
		if math.Abs(got-tc.want) > 4 {
			t.Fatalf("Q(%v) = %v, want ~%v", tc.q, got, tc.want)
		}
	}
	if math.Abs(d.Mean()-50) > 0.5 {
		t.Fatalf("Mean = %v, want ~50", d.Mean())
	}
	// Exact min/max survive the reservoir.
	if d.Min() > 0.01 || d.Max() < 99.99 {
		t.Logf("min=%v max=%v (statistical, tolerated)", d.Min(), d.Max())
	}
}

func TestDistributionSummary(t *testing.T) {
	d := NewDistribution()
	for i := 1; i <= 100; i++ {
		d.Add(float64(i))
	}
	s := d.Summarize()
	if s.Count != 100 || s.Min != 1 || s.Max != 100 {
		t.Fatalf("Summary = %+v", s)
	}
	if math.Abs(s.P50-50.5) > 0.01 {
		t.Fatalf("P50 = %v", s.P50)
	}
	if s.String() == "" {
		t.Fatal("empty summary string")
	}
}

// Property: for any sample set within the exact region, Quantile(0.5) lies
// between Min and Max, and quantiles are monotone in q.
func TestPropertyQuantileMonotone(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		d := NewDistribution()
		for _, v := range raw {
			d.Add(float64(v))
		}
		prev := math.Inf(-1)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			v := d.Quantile(q)
			if v < prev || v < d.Min() || v > d.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: within the exact region the quantile matches a direct sorted
// lookup at the interpolation endpoints.
func TestPropertyExactQuantiles(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		d := NewDistribution()
		vals := make([]float64, len(raw))
		for i, v := range raw {
			vals[i] = float64(v)
			d.Add(float64(v))
		}
		sort.Float64s(vals)
		// q exactly at index i/(n-1) must equal vals[i].
		n := len(vals)
		for _, i := range []int{0, n / 2, n - 1} {
			q := float64(i) / float64(n-1)
			if math.Abs(d.Quantile(q)-vals[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// eagerReservoir is the reservoir as it was before seeding went lazy: the
// subsampling stream is seeded at construction and on every reset.
type eagerReservoir struct {
	samples []float64
	n       int64
	cap     int
	seed    int64
	rng     *rand.Rand
}

func newEagerReservoir(size int, seed int64) *eagerReservoir {
	r := &eagerReservoir{cap: size, seed: seed}
	r.reset()
	return r
}

func (r *eagerReservoir) reset() {
	r.samples = r.samples[:0]
	r.n = 0
	r.rng = rand.New(rand.NewSource(r.seed))
}

func (r *eagerReservoir) add(v float64) {
	r.n++
	if len(r.samples) < r.cap {
		r.samples = append(r.samples, v)
		return
	}
	if j := r.rng.Int63n(r.n); j < int64(r.cap) {
		r.samples[j] = v
	}
}

// Lazy seeding draws the same stream as eager seeding: across sequences
// just under, at and just over the reservoir, and far past it, with Reset
// cycles between them, the retained samples and every quantile match.
func TestLazyReservoirMatchesEager(t *testing.T) {
	const seed = 7
	d := NewDistributionSize(DefaultReservoir, seed)
	oracle := newEagerReservoir(DefaultReservoir, seed)
	src := rand.New(rand.NewSource(3))
	for cycle, n := range []int{8191, 8192, 8193, 50000, 8193, 50000, 10} {
		if cycle > 0 {
			d.Reset()
			oracle.reset()
		}
		for i := 0; i < n; i++ {
			v := src.Float64() * 1000
			d.Add(v)
			oracle.add(v)
		}
		if d.Count() != oracle.n || len(d.samples) != len(oracle.samples) {
			t.Fatalf("cycle %d (n=%d): count %d/%d retained, want %d/%d",
				cycle, n, d.Count(), len(d.samples), oracle.n, len(oracle.samples))
		}
		for i := range oracle.samples {
			if d.samples[i] != oracle.samples[i] {
				t.Fatalf("cycle %d (n=%d): sample %d = %v, want %v", cycle, n, i, d.samples[i], oracle.samples[i])
			}
		}
		want := &Distribution{samples: append([]float64(nil), oracle.samples...)}
		for _, q := range []float64{0, 0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1} {
			if got, w := d.Quantile(q), want.Quantile(q); got != w {
				t.Fatalf("cycle %d (n=%d): Q(%v) = %v, want %v", cycle, n, q, got, w)
			}
		}
	}
}

// A distribution that never overflows its reservoir never builds a rand
// source: construction plus 1 000 Adds is the struct and its sample
// buffer, nothing else.
func TestDistributionSeedsOnlyOnOverflow(t *testing.T) {
	var d *Distribution
	allocs := testing.AllocsPerRun(20, func() {
		d = NewDistribution()
		for i := 0; i < 1000; i++ {
			d.Add(float64(i))
		}
	})
	if allocs > 2 || d.rng != nil {
		t.Fatalf("NewDistribution + 1000 Adds: %v allocs/run, rng seeded: %v", allocs, d.rng != nil)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	if c.Rate() != 0 {
		t.Fatal("empty counter rate != 0")
	}
	c.Observe(true)
	c.Observe(false)
	c.Observe(false)
	c.Observe(true)
	if c.Rate() != 0.5 {
		t.Fatalf("Rate = %v", c.Rate())
	}
}

func TestSeries(t *testing.T) {
	s := &Series{Name: "thr", Unit: "GB/s"}
	if s.Last() != 0 {
		t.Fatal("empty Last != 0")
	}
	for i := 0; i < 10; i++ {
		s.Append(float64(i), float64(i*10))
	}
	if s.Last() != 90 {
		t.Fatalf("Last = %v", s.Last())
	}
	if got := s.MeanOver(0, 10); got != 45 {
		t.Fatalf("MeanOver all = %v", got)
	}
	if got := s.MeanOver(2, 4); got != 25 {
		t.Fatalf("MeanOver[2,4) = %v", got)
	}
	if s.MeanOver(100, 200) != 0 {
		t.Fatal("empty-window aggregates should be 0")
	}
}

func BenchmarkDistributionAdd(b *testing.B) {
	d := NewDistributionSize(8192, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Add(float64(i % 1000))
	}
}

func BenchmarkDistributionQuantile(b *testing.B) {
	d := NewDistributionSize(8192, 1)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		d.Add(rng.Float64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.P99()
	}
}
