package main

// measure.go holds the process-level meters (wall clock, getrusage CPU,
// MemStats, VmHWM), the order statistics the run discipline reports
// (median of segment rates, median over samples) and the seeded source
// every generated input is drawn from.

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

var processStart = time.Now()

// nowNS is the monotonic wall clock in ns since process start.
func nowNS() int64 { return int64(time.Since(processStart)) }

// nproc2 is min(nproc, 2): the issue's GOMAXPROCS and the closed loop's
// connection count. Only live_console runs on that many Ps; the other
// three run on one. On the shared 2-vCPU box a second P turns every
// goroutine hand-off (client to server, mutator to GC worker) into a
// wake-up of the other vCPU, whose latency is the host's to decide: in
// interleaved runs of the same code it doubled the spread of the
// throughputs and multiplied the unloaded query_ms's by five. On one P
// the workloads stay concurrent (two upload connections, the pipeline's
// consumers) but not parallel. live_console keeps the second P because
// its reader must not queue behind ingest: on one P a box running a third
// slower doubled query_ms, on two it moved it by a tenth (NOISE.md).
func nproc2() int { return min(runtime.NumCPU(), 2) }

// cpuNS is the process's user+system CPU time so far.
func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := bytes.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(string(f[0]), 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// meter is a snapshot of the cumulative process counters; the difference
// of two brackets a section.
type meter struct {
	wall, cpu  int64
	mallocs    uint64
	gcCycles   uint32
	gcPauseNS  uint64
	heapInuse  uint64
	totalAlloc uint64
}

func readMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{
		wall: nowNS(), cpu: cpuNS(), mallocs: ms.Mallocs, gcCycles: ms.NumGC,
		gcPauseNS: ms.PauseTotalNs, heapInuse: ms.HeapInuse, totalAlloc: ms.TotalAlloc,
	}
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between order statistics; v is not
// modified.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// exclusiveQuantile is Python's statistics.quantiles(v, n=4) cut point
// for q in {0.25, 0.5, 0.75} (the default "exclusive" method), which is
// what the driver computes spreads with.
func exclusiveQuantile(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	i := int(q*4 + 0.5)
	j := i * (m + 1) / 4
	delta := i*(m+1) - j*4
	if j < 1 {
		j, delta = 1, 0
	}
	if j > m-1 {
		j, delta = m-1, 4
	}
	return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
}

// nsQuantile is the q-quantile of ns durations, in units of unit ns
// (1e6: ms, 1e3: µs).
func nsQuantile(d []int64, q, unit float64) float64 {
	f := make([]float64, len(d))
	for i, v := range d {
		f[i] = float64(v)
	}
	return quantile(f, q) / unit
}

// rng is splitmix64: tiny, allocation-free and identical everywhere, so
// one -seed always generates the same inputs.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a seeded permutation of 0..n-1.
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
