// Package metrics provides the measurement aggregates R-Pingmesh's
// Analyzer tracks per analysis window: quantile distributions (P50…P999)
// of network RTT and end-host processing delay, drop-rate counters, and
// simple time series for reporting.
package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Distribution accumulates float64 samples and reports quantiles. Up to
// maxExact samples are kept exactly; beyond that, reservoir sampling keeps
// a uniform subsample, which is accurate enough for the P50–P999 SLA
// quantiles the Analyzer publishes every 20 s.
type Distribution struct {
	samples []float64
	n       int64 // total observed
	sum     float64
	min     float64
	max     float64
	cap     int
	rng     *rand.Rand // seeded at the first overflow; nil until then
	seed    int64
	sorted  bool
}

// DefaultReservoir is the default maximum number of retained samples.
const DefaultReservoir = 8192

// NewDistribution returns an empty distribution with the default
// reservoir size and a deterministic subsampling stream.
func NewDistribution() *Distribution { return NewDistributionSize(DefaultReservoir, 1) }

// NewDistributionSize returns an empty distribution retaining at most size
// samples, subsampling with the given seed once full.
func NewDistributionSize(size int, seed int64) *Distribution {
	if size <= 0 {
		size = DefaultReservoir
	}
	return &Distribution{
		samples: make([]float64, 0, min(size, 1024)),
		cap:     size,
		seed:    seed,
		min:     math.Inf(1),
		max:     math.Inf(-1),
	}
}

// Reset empties the distribution in place, keeping the sample buffer's
// backing array and rewinding the subsampling stream, so a reused
// distribution observes any sample sequence bit-identically to a fresh
// one — callers (the Analyzer's per-window SLA scratch) rely on that to
// reuse buffers across windows without perturbing seeded runs.
func (d *Distribution) Reset() {
	d.samples = d.samples[:0]
	d.n = 0
	d.sum = 0
	d.min = math.Inf(1)
	d.max = math.Inf(-1)
	d.rng = nil
	d.sorted = false
}

// Add observes one sample.
func (d *Distribution) Add(v float64) {
	d.n++
	d.sum += v
	if v < d.min {
		d.min = v
	}
	if v > d.max {
		d.max = v
	}
	if len(d.samples) < d.cap {
		d.samples = append(d.samples, v)
		d.sorted = false
		return
	}
	// Reservoir replacement keeps a uniform sample of everything seen.
	// The stream is seeded here, not at construction: seeding a
	// math/rand source costs ~5 KB and a 607-word loop, and most
	// distributions never overflow. The draws are the same either way.
	if d.rng == nil {
		d.rng = rand.New(rand.NewSource(d.seed))
	}
	if j := d.rng.Int63n(d.n); j < int64(d.cap) {
		d.samples[j] = v
		d.sorted = false
	}
}

// Count returns the number of observed samples.
func (d *Distribution) Count() int64 { return d.n }

// Mean returns the mean of all observed samples (not just retained ones).
func (d *Distribution) Mean() float64 {
	if d.n == 0 {
		return 0
	}
	return d.sum / float64(d.n)
}

// Min returns the smallest observed sample, or 0 if empty.
func (d *Distribution) Min() float64 {
	if d.n == 0 {
		return 0
	}
	return d.min
}

// Max returns the largest observed sample, or 0 if empty.
func (d *Distribution) Max() float64 {
	if d.n == 0 {
		return 0
	}
	return d.max
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) with linear interpolation
// between retained samples. Returns 0 for an empty distribution.
func (d *Distribution) Quantile(q float64) float64 {
	if len(d.samples) == 0 {
		return 0
	}
	if !d.sorted {
		sort.Float64s(d.samples)
		d.sorted = true
	}
	if q <= 0 {
		return d.samples[0]
	}
	if q >= 1 {
		return d.samples[len(d.samples)-1]
	}
	pos := q * float64(len(d.samples)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(d.samples) {
		return d.samples[lo]
	}
	return d.samples[lo]*(1-frac) + d.samples[lo+1]*frac
}

// P50, P90, P99 and P999 are the SLA quantiles the paper reports.
func (d *Distribution) P50() float64  { return d.Quantile(0.50) }
func (d *Distribution) P90() float64  { return d.Quantile(0.90) }
func (d *Distribution) P99() float64  { return d.Quantile(0.99) }
func (d *Distribution) P999() float64 { return d.Quantile(0.999) }

// Summary is a value-type snapshot of a Distribution.
type Summary struct {
	Count               int64
	Mean, Min, Max      float64
	P50, P90, P99, P999 float64
}

// Summarize snapshots the distribution.
func (d *Distribution) Summarize() Summary {
	return Summary{
		Count: d.n, Mean: d.Mean(), Min: d.Min(), Max: d.Max(),
		P50: d.P50(), P90: d.P90(), P99: d.P99(), P999: d.P999(),
	}
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%.1f p99=%.1f p999=%.1f max=%.1f",
		s.Count, s.Mean, s.P50, s.P99, s.P999, s.Max)
}

// Counter is a ratio counter for drop rates: failures over totals.
type Counter struct {
	Total int64
	Bad   int64
}

// Observe records one event, bad or good.
func (c *Counter) Observe(bad bool) {
	c.Total++
	if bad {
		c.Bad++
	}
}

// Rate returns Bad/Total, or 0 when empty.
func (c *Counter) Rate() float64 {
	if c.Total == 0 {
		return 0
	}
	return float64(c.Bad) / float64(c.Total)
}

// Gauge tracks an instantaneous level and its high-water mark (queue
// depths, inflight counts). Like the rest of this package it is not
// synchronized; callers guard it with their own locks.
type Gauge struct {
	v, max int64
}

// Set records the current level.
func (g *Gauge) Set(v int64) {
	g.v = v
	if v > g.max {
		g.max = v
	}
}

// Add shifts the current level by d.
func (g *Gauge) Add(d int64) { g.Set(g.v + d) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v }

// Max returns the high-water mark.
func (g *Gauge) Max() int64 { return g.max }

// Point is one sample of a time series.
type Point struct {
	T float64 // seconds since run start
	V float64
}

// Series is an append-only time series used for experiment reporting.
type Series struct {
	Name   string
	Unit   string
	Points []Point
}

// Append adds a point.
func (s *Series) Append(t, v float64) { s.Points = append(s.Points, Point{T: t, V: v}) }

// Last returns the most recent value, or 0 when empty.
func (s *Series) Last() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	return s.Points[len(s.Points)-1].V
}

// MeanOver returns the mean of values with T in [from, to).
func (s *Series) MeanOver(from, to float64) float64 {
	sum, n := 0.0, 0
	for _, p := range s.Points {
		if p.T >= from && p.T < to {
			sum += p.V
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
