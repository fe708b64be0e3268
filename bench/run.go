package main

// run.go is the run discipline shared by the four workloads: fixed work
// scaled by -seconds, set-up timed apart from warm-up and from the timed
// section, the timed section cut into equal segments, throughput as the
// median of segment rates.

import (
	"fmt"
	"runtime"
	"strings"
)

// Workload names are fixed: later PRs are judged by them.
var workloadNames = []string{"live_ingest", "live_console", "sim_steady", "sim_faults"}

// windowsPerSecond calibrates the fixed work: how many 20 s analysis
// windows one second of -seconds buys, per workload, so that the timed
// section lasts about -seconds on the 2-core reference box. The work is
// a count, never a duration, so every count repeats exactly.
var windowsPerSecond = map[string]float64{
	"live_ingest":  1.6,
	"live_console": 1.6, // paced: 24 windows × ~16 k records at 30 k records/s ≈ 13 s
	"sim_steady":   1.2,
	"sim_faults":   0.55,
}

// Set-up is repeated and setup_s is the median: three times where one
// set-up simulates captures (seconds), nine times where it only builds
// the cluster (tens of milliseconds, so a single GC or scheduling hiccup
// is a large share of it). NOISE.md compares the median with the first
// set-up alone.
const (
	liveSetupRepeats = 3
	simSetupRepeats  = 9
)

type runConfig struct {
	workload string
	seed     int64
	seconds  int
	tiny     bool // -scale tiny: shrink the window count only (smoke test)
	trace    bool
	spans    string // traced run: write the raw spans here at exit
}

// windows is the timed section's fixed window count. With segments > 0
// it is a multiple of the segment count; with segments == 0 every window
// is its own segment and there are at least five.
func (c runConfig) windows(segments int) int {
	n := float64(c.seconds) * windowsPerSecond[c.workload]
	if segments == 0 {
		if c.tiny {
			return 4
		}
		return max(int(n+0.5), 5)
	}
	if c.tiny {
		return segments
	}
	return max(int(n/float64(segments)+0.5), 1) * segments
}

// setups is how many times the workload sets up.
func (c runConfig) setups() int {
	switch {
	case c.tiny:
		return 1
	case strings.HasPrefix(c.workload, "sim_"):
		return simSetupRepeats
	}
	return liveSetupRepeats
}

// repeatSetups makes setup_s the median over setups() set-ups. The first
// is the measured stack's own, charged from process start and already in
// res; the others run here, after that stack has been measured and torn
// down, so neither peak_rss_mb nor the timed section sees them.
func repeatSetups(cfg runConfig, res *result, build func() (teardown func(), err error)) error {
	res.setupFirst = res.e2e["setup_s"]
	secs := []float64{res.setupFirst}
	for len(secs) < cfg.setups() {
		collect()
		t0 := nowNS()
		teardown, err := build()
		if err != nil {
			return fmt.Errorf("repeated set-up: %w", err)
		}
		secs = append(secs, float64(nowNS()-t0)/1e9)
		teardown()
	}
	res.e2e["setup_s"] = median(secs)
	return nil
}

// queryProbes is how many unloaded console bundles give query_ms on a
// workload that runs no reader beside its timed section.
func (c runConfig) queryProbes() int {
	if c.tiny {
		return 5
	}
	return 80
}

// tracedFrom is the first traced segment of a traced run: the two
// before it run untraced, to price the tracing.
func tracedFrom(c runConfig) int {
	if !c.trace {
		return -1
	}
	return 2
}

// result is what one workload process reports.
type result struct {
	cfg         runConfig
	e2e         map[string]float64
	layer       map[string]float64
	samples     map[string]int // sample counts behind the latency medians
	chk         *checker
	setupFirst  float64 // the measured stack's own set-up, from process start
	fingerprint string
	budget      []string
	faults      []*plantedFault
}

func newResult(cfg runConfig) *result {
	return &result{cfg: cfg, e2e: map[string]float64{}, layer: map[string]float64{},
		samples: map[string]int{}, chk: &checker{}}
}

// collect settles the heap before a measured part.
func collect() {
	runtime.GC()
	runtime.GC()
}

// section brackets the timed section with the process meters and keeps
// the per-segment rates.
type section struct {
	tr         *tracer
	tracedFrom int

	start, end meter
	segStart   int64
	records    int64
	vsecs      float64
	wallNS     int64
	recRates   []float64 // records per wall second, per segment
	vRates     []float64 // virtual seconds per wall second, per segment

	tracedRecords int64
	cpuShares     map[string]float64
	profErr       error
}

func newSection(tr *tracer, tracedFrom int) *section {
	return &section{tr: tr, tracedFrom: tracedFrom}
}

func (s *section) beginSegment(seg int) {
	if seg == 0 {
		s.start = readMeter()
	}
	if s.tr != nil && seg == s.tracedFrom {
		s.tr.enabled.Store(true)
		s.profErr = s.tr.startProfile()
	}
	s.segStart = nowNS()
}

func (s *section) endSegment(records int, vsecs float64) {
	wall := nowNS() - s.segStart
	s.wallNS += wall
	s.records += int64(records)
	s.vsecs += vsecs
	s.recRates = append(s.recRates, float64(records)/(float64(wall)/1e9))
	s.vRates = append(s.vRates, vsecs/(float64(wall)/1e9))
	if s.tr.on() {
		s.tracedRecords += int64(records)
	}
}

func (s *section) finish() {
	s.end = readMeter()
	if s.tr != nil && s.tracedFrom >= 0 {
		if s.profErr == nil {
			s.cpuShares, s.profErr = s.tr.stopProfile()
		}
		s.tr.enabled.Store(false)
	}
}

// fill writes the section's end-to-end metrics and, for a traced run,
// the runtime and tracing-cost layers.
func (s *section) fill(res *result) {
	records := float64(s.records)
	res.e2e["records_per_s"] = median(s.recRates)
	res.e2e["vsec_per_s"] = median(s.vRates)
	res.e2e["cpu_us_per_record"] = float64(s.end.cpu-s.start.cpu) / 1e3 / records
	res.e2e["allocs_per_record"] = float64(s.end.mallocs-s.start.mallocs) / records
	res.samples["records_per_s"] = len(s.recRates)

	L := res.layer
	L["rt.gc_cycles"] = float64(s.end.gcCycles - s.start.gcCycles)
	L["rt.gc_pause_ms"] = float64(s.end.gcPauseNS-s.start.gcPauseNS) / 1e6
	L["rt.heap_inuse_mb"] = float64(s.end.heapInuse) / (1 << 20)
	if s.tracedFrom > 0 && s.tracedFrom < len(s.recRates) {
		plain, traced := median(s.recRates[:s.tracedFrom]), median(s.recRates[s.tracedFrom:])
		L["trace.overhead_pct"] = 100 * (plain - traced) / plain
	}
	if s.profErr != nil {
		res.budget = append(res.budget, "  cpu_share.* dropped: "+s.profErr.Error())
	}
	for _, l := range cpuLayers {
		L["cpu_share."+l] = s.cpuShares[l]
	}
}
