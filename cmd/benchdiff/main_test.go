package main

import (
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: rpingmesh
BenchmarkAnalyzerWindow-8   	     120	   9876543 ns/op	 1234 B/op	  56 allocs/op
BenchmarkAnalyzerWindow-8   	     130	   9500000 ns/op	 1234 B/op	  56 allocs/op
BenchmarkPipelineIngest-8   	 2000000	       600.5 ns/op
BenchmarkPipelineIngest-8   	 2100000	       580.2 ns/op
BenchmarkWireUpload/Upload-8 	   60000	     18000 ns/op	         1.436 allocs/record	       290.3 ns/record	    7664 B/op	      89 allocs/op
PASS
ok  	rpingmesh	3.21s
`

func TestParseKeepsMinimumAndStripsSuffix(t *testing.T) {
	snap, err := parse(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.NsPerOp["BenchmarkAnalyzerWindow"]; got != 9500000 {
		t.Fatalf("AnalyzerWindow min = %v, want 9500000", got)
	}
	if got := snap.NsPerOp["BenchmarkPipelineIngest"]; got != 580.2 {
		t.Fatalf("PipelineIngest min = %v, want 580.2", got)
	}
	if _, ok := snap.NsPerOp["BenchmarkAnalyzerWindow-8"]; ok {
		t.Fatal("GOMAXPROCS suffix not stripped")
	}
	// Custom metric columns do not hide the memory columns behind them.
	if ns, allocs := snap.NsPerOp["BenchmarkWireUpload/Upload"], snap.AllocsPerOp["BenchmarkWireUpload/Upload"]; ns != 18000 || allocs != 89 {
		t.Fatalf("WireUpload/Upload = %v ns/op, %v allocs/op, want 18000, 89", ns, allocs)
	}
}

func TestParseRejectsEmptyInput(t *testing.T) {
	if _, err := parse(strings.NewReader("no benchmarks here\n")); err == nil {
		t.Fatal("parse accepted input with no benchmark lines")
	}
}

// TestCompareFailsOnSyntheticRegression is the gate's own acceptance
// test: a 2x slowdown must be flagged at the 25% threshold.
func TestCompareFailsOnSyntheticRegression(t *testing.T) {
	base := &Snapshot{NsPerOp: map[string]float64{
		"BenchmarkAnalyzerWindow": 1000,
		"BenchmarkPipelineIngest": 500,
	}}
	cand := &Snapshot{NsPerOp: map[string]float64{
		"BenchmarkAnalyzerWindow": 2000, // 2x — must fail
		"BenchmarkPipelineIngest": 510,  // +2% — fine
	}}
	var out strings.Builder
	bad := compare(base, cand, 0.25, &out)
	if len(bad) != 1 {
		t.Fatalf("want exactly 1 regression, got %d: %v", len(bad), bad)
	}
	if !strings.Contains(bad[0], "BenchmarkAnalyzerWindow") {
		t.Fatalf("wrong benchmark flagged: %v", bad[0])
	}
	if !strings.Contains(out.String(), "REGRESSED") {
		t.Fatalf("report missing REGRESSED marker:\n%s", out.String())
	}
}

func TestCompareWithinBudgetPasses(t *testing.T) {
	base := &Snapshot{NsPerOp: map[string]float64{"BenchmarkIncidentFold": 800}}
	cand := &Snapshot{NsPerOp: map[string]float64{"BenchmarkIncidentFold": 900}} // +12.5%
	var out strings.Builder
	if bad := compare(base, cand, 0.25, &out); len(bad) != 0 {
		t.Fatalf("unexpected regressions: %v", bad)
	}
}

func TestCompareFlagsMissingBenchmark(t *testing.T) {
	base := &Snapshot{NsPerOp: map[string]float64{"BenchmarkIncidentFold": 800}}
	cand := &Snapshot{NsPerOp: map[string]float64{"BenchmarkOther": 1}}
	var out strings.Builder
	bad := compare(base, cand, 0.25, &out)
	if len(bad) != 1 || !strings.Contains(bad[0], "missing") {
		t.Fatalf("missing benchmark not flagged: %v", bad)
	}
}

func TestParseCapturesAllocs(t *testing.T) {
	snap, err := parse(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.AllocsPerOp["BenchmarkAnalyzerWindow"]; got != 56 {
		t.Fatalf("AnalyzerWindow allocs = %v, want 56", got)
	}
	// PipelineIngest lines carry no -benchmem columns; no entry expected.
	if _, ok := snap.AllocsPerOp["BenchmarkPipelineIngest"]; ok {
		t.Fatal("allocs recorded for a benchmark without -benchmem columns")
	}
}

// A zero-alloc baseline is exact: one allocation per op must fail the
// gate regardless of the fractional headroom.
func TestCompareZeroAllocBaselineIsExact(t *testing.T) {
	base := &Snapshot{
		NsPerOp:     map[string]float64{"BenchmarkPipelineIngest": 40},
		AllocsPerOp: map[string]float64{"BenchmarkPipelineIngest": 0},
	}
	cand := &Snapshot{
		NsPerOp:     map[string]float64{"BenchmarkPipelineIngest": 41},
		AllocsPerOp: map[string]float64{"BenchmarkPipelineIngest": 1},
	}
	var out strings.Builder
	bad := compare(base, cand, 0.25, &out)
	if len(bad) != 1 || !strings.Contains(bad[0], "allocs/op") {
		t.Fatalf("alloc regression not flagged: %v", bad)
	}
}

// TestRunnerGate: stamped snapshots from different core counts refuse
// to compare; an unstamped side (legacy baseline) compares with a
// warning; matching stamps pass silently.
func TestRunnerGate(t *testing.T) {
	stamped := func(cpus int) *Snapshot {
		return &Snapshot{
			NsPerOp: map[string]float64{"BenchmarkIncidentFold": 1},
			Runner:  &RunnerInfo{NumCPU: cpus, GOMAXPROCS: cpus, GOOS: "linux", GOARCH: "amd64"},
		}
	}
	bare := &Snapshot{NsPerOp: map[string]float64{"BenchmarkIncidentFold": 1}}

	if _, err := runnerGate(stamped(1), stamped(4)); err == nil {
		t.Fatal("differing core counts not refused")
	}
	warn, err := runnerGate(bare, stamped(4))
	if err != nil || !strings.Contains(warn, "no runner stamp") {
		t.Fatalf("unstamped baseline: warn=%q err=%v, want warning and nil error", warn, err)
	}
	warn, err = runnerGate(stamped(4), bare)
	if err != nil || warn == "" {
		t.Fatalf("unstamped candidate: warn=%q err=%v, want warning and nil error", warn, err)
	}
	warn, err = runnerGate(stamped(4), stamped(4))
	if err != nil || warn != "" {
		t.Fatalf("matching stamps: warn=%q err=%v, want clean pass", warn, err)
	}
}

func scalingFixture(cpus int, serialNs, ns4gm4 float64) []scalingPoint {
	mk := func(gm int, n1, n2, n4 float64) scalingPoint {
		return scalingPoint{gm: gm, snap: &Snapshot{
			NsPerOp: map[string]float64{
				"BenchmarkEngineSharded/shards=1": n1,
				"BenchmarkEngineSharded/shards=2": n2,
				"BenchmarkEngineSharded/shards=4": n4,
			},
			Runner: &RunnerInfo{NumCPU: cpus, GOMAXPROCS: gm, GOOS: "linux", GOARCH: "amd64"},
		}}
	}
	return []scalingPoint{
		mk(1, serialNs, serialNs*1.1, serialNs*1.2),
		mk(2, serialNs, serialNs*0.6, serialNs*0.7),
		mk(4, serialNs, serialNs*0.55, ns4gm4),
	}
}

// TestScalingReportGate: a 2x speedup at shards=4/GOMAXPROCS=4 passes
// the 1.5x gate and the table carries every cell; a sub-threshold
// speedup fails it.
func TestScalingReportGate(t *testing.T) {
	pts := scalingFixture(4, 40e6, 20e6) // 2.00x
	md, bad, err := scalingReport(pts, "BenchmarkEngineSharded", "shards=1", "shards=4", 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Fatalf("2x speedup failed the 1.5x gate: %v", bad)
	}
	for _, frag := range []string{"GOMAXPROCS=1", "GOMAXPROCS=4", "shards=2", "2.00x", "PASS", "4 CPUs"} {
		if !strings.Contains(md, frag) {
			t.Fatalf("table missing %q:\n%s", frag, md)
		}
	}

	slow := scalingFixture(4, 40e6, 35e6) // 1.14x
	_, bad, err = scalingReport(slow, "BenchmarkEngineSharded", "shards=1", "shards=4", 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 1 || !strings.Contains(bad[0], "1.14x < 1.50x") {
		t.Fatalf("sub-threshold speedup not flagged: %v", bad)
	}
}

// TestScalingReportSkipsGateOnSmallRunner: a 1-CPU runner cannot show
// parallel speedup — the gate is skipped loudly instead of failing.
func TestScalingReportSkipsGateOnSmallRunner(t *testing.T) {
	pts := scalingFixture(1, 40e6, 48e6) // 0.83x — would fail any gate
	md, bad, err := scalingReport(pts, "BenchmarkEngineSharded", "shards=1", "shards=4", 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Fatalf("gate fired on a 1-CPU runner: %v", bad)
	}
	if !strings.Contains(md, "Gate SKIPPED") {
		t.Fatalf("skip notice missing:\n%s", md)
	}
}

// TestScalingReportNeedsSerialReference: no GOMAXPROCS=1 snapshot, or a
// GOMAXPROCS=1 snapshot without the serial variant, is a hard error.
func TestScalingReportNeedsSerialReference(t *testing.T) {
	pts := scalingFixture(4, 40e6, 20e6)[1:]
	if _, _, err := scalingReport(pts, "BenchmarkEngineSharded", "shards=1", "shards=4", 1.0); err == nil {
		t.Fatal("missing GOMAXPROCS=1 snapshot accepted")
	}
	pts = scalingFixture(4, 40e6, 20e6)
	delete(pts[0].snap.NsPerOp, "BenchmarkEngineSharded/shards=1")
	if _, _, err := scalingReport(pts, "BenchmarkEngineSharded", "shards=1", "shards=4", 1.0); err == nil {
		t.Fatal("missing serial variant accepted")
	}
}

func TestCompareAllocWithinBudgetAndMissing(t *testing.T) {
	base := &Snapshot{
		NsPerOp:     map[string]float64{"BenchmarkAnalyzerWindow": 1000},
		AllocsPerOp: map[string]float64{"BenchmarkAnalyzerWindow": 100},
	}
	cand := &Snapshot{
		NsPerOp:     map[string]float64{"BenchmarkAnalyzerWindow": 1000},
		AllocsPerOp: map[string]float64{"BenchmarkAnalyzerWindow": 120}, // +20% < 25%
	}
	var out strings.Builder
	if bad := compare(base, cand, 0.25, &out); len(bad) != 0 {
		t.Fatalf("unexpected regressions: %v", bad)
	}
	// A baseline with allocs but a candidate without must fail loudly.
	cand.AllocsPerOp = nil
	bad := compare(base, cand, 0.25, &out)
	if len(bad) != 1 || !strings.Contains(bad[0], "missing") {
		t.Fatalf("missing allocs not flagged: %v", bad)
	}
}
