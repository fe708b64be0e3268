// Command benchdiff is the benchmark regression gate.
//
// Two modes:
//
//	go test -bench ... | benchdiff -parse > BENCH_pr.json
//	    Parse `go test -bench` text from stdin into canonical JSON: per
//	    benchmark (GOMAXPROCS suffix stripped), the minimum ns/op across
//	    all -count repetitions — min, not mean, because noise on a shared
//	    CI runner only ever adds time. With -benchmem output, allocs/op
//	    is captured the same way (minimum per name).
//
//	benchdiff -baseline BENCH_baseline.json -candidate BENCH_pr.json -max-regress 0.25
//	    Exit non-zero if any baseline benchmark is missing from the
//	    candidate, slowed down by more than -max-regress, or allocates
//	    more than the baseline allows (a 0-alloc baseline admits no
//	    allocations at all — the zero-allocation ingest path is pinned
//	    exactly).
//
//	benchdiff -scaling -out SCALING.md -min-speedup 1.0 gm1.json gm2.json gm4.json
//	    Render the multicore scaling curve of the sharded engine from
//	    per-GOMAXPROCS snapshots (each produced by -parse under a
//	    different GOMAXPROCS) as a markdown speedup table, and gate the
//	    4-shard configuration at the widest GOMAXPROCS against the
//	    serial reference. The gate is skipped — loudly — when the
//	    capturing runner has fewer CPUs than the sweep's widest
//	    GOMAXPROCS, so 1-core dev boxes still produce the table.
//
// Every -parse snapshot is stamped with the capturing runner's CPU
// count; compare refuses to gate two stamped snapshots from different
// core counts, because ns/op across core counts is not a regression
// signal.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Snapshot is the JSON schema of BENCH_baseline.json / BENCH_pr.json.
type Snapshot struct {
	// NsPerOp maps benchmark name (no -N GOMAXPROCS suffix) to the best
	// observed ns/op.
	NsPerOp map[string]float64 `json:"ns_per_op"`
	// AllocsPerOp maps benchmark name to the best observed allocs/op —
	// present only for benchmarks run with -benchmem.
	AllocsPerOp map[string]float64 `json:"allocs_per_op,omitempty"`
	// Runner records the machine the snapshot was captured on. Absent in
	// snapshots written before stamping existed (the legacy migration
	// path: such baselines compare with a warning instead of engaging
	// the core-count refusal).
	Runner *RunnerInfo `json:"runner,omitempty"`
}

// RunnerInfo is the capturing machine's identity, stamped at -parse
// time. NumCPU is the comparability key: ns/op from a 1-core container
// and a 4-core CI runner are different experiments. GOMAXPROCS is what
// the -scaling mode sweeps.
type RunnerInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func currentRunner() *RunnerInfo {
	return &RunnerInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// runnerGate decides whether two snapshots may be compared. Both
// stamped with differing CPU counts is a hard refusal; an unstamped
// side compares with a warning so pre-stamp baselines keep gating
// until they are re-captured.
func runnerGate(base, cand *Snapshot) (warning string, err error) {
	switch {
	case base.Runner == nil:
		return "benchdiff: baseline carries no runner stamp; comparing anyway (re-capture with make bench-baseline to engage the core-count guard)", nil
	case cand.Runner == nil:
		return "benchdiff: candidate carries no runner stamp; comparing anyway", nil
	case base.Runner.NumCPU != cand.Runner.NumCPU:
		return "", fmt.Errorf(
			"benchdiff: refusing to compare: baseline captured on %d CPUs (%s/%s), candidate on %d CPUs (%s/%s) — ns/op across core counts is not a regression signal; re-capture the baseline on this machine class",
			base.Runner.NumCPU, base.Runner.GOOS, base.Runner.GOARCH,
			cand.Runner.NumCPU, cand.Runner.GOOS, cand.Runner.GOARCH)
	}
	return "", nil
}

// benchLine matches `BenchmarkName-8  	 100	 12345 ns/op	 64 B/op	 2 allocs/op`
// (the memory columns are optional, and b.ReportMetric columns may sit
// between ns/op and them).
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:.*?\s[0-9.]+ B/op\s+([0-9]+) allocs/op)?`)

// parse reads go-test benchmark text and keeps the per-name minimum.
func parse(r io.Reader) (*Snapshot, error) {
	snap := &Snapshot{NsPerOp: make(map[string]float64)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("benchdiff: bad ns/op in %q: %w", sc.Text(), err)
		}
		if prev, ok := snap.NsPerOp[m[1]]; !ok || ns < prev {
			snap.NsPerOp[m[1]] = ns
		}
		if m[3] != "" {
			allocs, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				return nil, fmt.Errorf("benchdiff: bad allocs/op in %q: %w", sc.Text(), err)
			}
			if snap.AllocsPerOp == nil {
				snap.AllocsPerOp = make(map[string]float64)
			}
			if prev, ok := snap.AllocsPerOp[m[1]]; !ok || allocs < prev {
				snap.AllocsPerOp[m[1]] = allocs
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(snap.NsPerOp) == 0 {
		return nil, fmt.Errorf("benchdiff: no benchmark lines found on stdin")
	}
	return snap, nil
}

func load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("benchdiff: %s: %w", path, err)
	}
	if len(snap.NsPerOp) == 0 {
		return nil, fmt.Errorf("benchdiff: %s holds no benchmarks", path)
	}
	return &snap, nil
}

// compare renders a per-benchmark report and returns the regressions.
func compare(base, cand *Snapshot, maxRegress float64, w io.Writer) []string {
	names := make([]string, 0, len(base.NsPerOp))
	for name := range base.NsPerOp {
		names = append(names, name)
	}
	sort.Strings(names)

	var bad []string
	for _, name := range names {
		b := base.NsPerOp[name]
		c, ok := cand.NsPerOp[name]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: missing from candidate", name))
			continue
		}
		delta := c/b - 1
		verdict := "ok"
		if delta > maxRegress {
			verdict = "REGRESSED"
			bad = append(bad, fmt.Sprintf("%s: %.0f ns/op -> %.0f ns/op (%+.1f%% > %+.1f%% allowed)",
				name, b, c, delta*100, maxRegress*100))
		}
		fmt.Fprintf(w, "%-40s %12.0f -> %12.0f ns/op  %+7.1f%%  %s\n", name, b, c, delta*100, verdict)
	}

	// Allocation gate: every baseline allocs/op entry is a ceiling. A
	// zero baseline is exact (the zero-allocation contract admits no
	// slack), a non-zero baseline gets the same fractional headroom as
	// ns/op.
	allocNames := make([]string, 0, len(base.AllocsPerOp))
	for name := range base.AllocsPerOp {
		allocNames = append(allocNames, name)
	}
	sort.Strings(allocNames)
	for _, name := range allocNames {
		b := base.AllocsPerOp[name]
		c, ok := cand.AllocsPerOp[name]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: allocs/op missing from candidate (run with -benchmem)", name))
			continue
		}
		limit := b * (1 + maxRegress)
		verdict := "ok"
		if c > limit {
			verdict = "REGRESSED"
			bad = append(bad, fmt.Sprintf("%s: %.0f allocs/op -> %.0f allocs/op (limit %.0f)",
				name, b, c, limit))
		}
		fmt.Fprintf(w, "%-40s %12.0f -> %12.0f allocs/op          %s\n", name, b, c, verdict)
	}
	return bad
}

// scalingPoint is one per-GOMAXPROCS snapshot of the sharded-engine
// sweep.
type scalingPoint struct {
	gm   int
	snap *Snapshot
}

// loadScaling reads the sweep's snapshot files. Every file must carry a
// runner stamp — the stamp's GOMAXPROCS is the column key.
func loadScaling(paths []string) ([]scalingPoint, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("benchdiff: -scaling needs per-GOMAXPROCS snapshot files as arguments")
	}
	pts := make([]scalingPoint, 0, len(paths))
	for _, p := range paths {
		snap, err := load(p)
		if err != nil {
			return nil, err
		}
		if snap.Runner == nil {
			return nil, fmt.Errorf("benchdiff: %s carries no runner stamp; -scaling needs snapshots from a current benchdiff -parse", p)
		}
		pts = append(pts, scalingPoint{gm: snap.Runner.GOMAXPROCS, snap: snap})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].gm < pts[j].gm })
	return pts, nil
}

// scalingReport renders the speedup table and gates gateVariant at the
// widest GOMAXPROCS against the serial reference (serialVariant at
// GOMAXPROCS=1). Speedup = serial-reference ns / cell ns. The gate is
// skipped with a loud notice when the capturing runner has fewer CPUs
// than the sweep's widest GOMAXPROCS — the curve cannot rise where the
// cores do not exist.
func scalingReport(pts []scalingPoint, bench, serialVariant, gateVariant string, minSpeedup float64) (string, []string, error) {
	serialName := bench + "/" + serialVariant
	if pts[0].gm != 1 {
		return "", nil, fmt.Errorf("benchdiff: -scaling needs a GOMAXPROCS=1 snapshot for the serial reference (narrowest provided: %d)", pts[0].gm)
	}
	serial, ok := pts[0].snap.NsPerOp[serialName]
	if !ok {
		return "", nil, fmt.Errorf("benchdiff: serial reference %s missing from the GOMAXPROCS=1 snapshot", serialName)
	}

	// Rows: every variant of the bench seen in any snapshot, sorted.
	prefix := bench + "/"
	rowSet := map[string]bool{}
	for _, pt := range pts {
		for name := range pt.snap.NsPerOp {
			if strings.HasPrefix(name, prefix) {
				rowSet[name] = true
			}
		}
	}
	if len(rowSet) == 0 {
		return "", nil, fmt.Errorf("benchdiff: no %s* results in any snapshot", prefix)
	}
	rows := make([]string, 0, len(rowSet))
	for name := range rowSet {
		rows = append(rows, name)
	}
	sort.Strings(rows)

	last := pts[len(pts)-1]
	var b strings.Builder
	fmt.Fprintf(&b, "# Sharded engine scaling\n\n")
	fmt.Fprintf(&b, "Captured on %s/%s, %d CPUs. Serial reference: `%s` at GOMAXPROCS=1 (%.1f ms); each cell shows ns/op as ms and its speedup over that reference.\n\n",
		last.snap.Runner.GOOS, last.snap.Runner.GOARCH, last.snap.Runner.NumCPU, serialName, serial/1e6)
	fmt.Fprintf(&b, "| benchmark |")
	for _, pt := range pts {
		fmt.Fprintf(&b, " GOMAXPROCS=%d |", pt.gm)
	}
	fmt.Fprintf(&b, "\n|---|")
	for range pts {
		fmt.Fprintf(&b, "---|")
	}
	fmt.Fprintf(&b, "\n")
	for _, row := range rows {
		fmt.Fprintf(&b, "| %s |", row)
		for _, pt := range pts {
			ns, ok := pt.snap.NsPerOp[row]
			if !ok {
				fmt.Fprintf(&b, " — |")
				continue
			}
			fmt.Fprintf(&b, " %.1f ms (%.2fx) |", ns/1e6, serial/ns)
		}
		fmt.Fprintf(&b, "\n")
	}

	var bad []string
	gateName := bench + "/" + gateVariant
	switch {
	case last.snap.Runner.NumCPU < last.gm:
		fmt.Fprintf(&b, "\n**Gate SKIPPED**: runner has %d CPUs < GOMAXPROCS=%d — parallel speedup is not measurable here; the CI scaling job enforces it on a multicore runner.\n",
			last.snap.Runner.NumCPU, last.gm)
	default:
		ns, ok := last.snap.NsPerOp[gateName]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: missing from the GOMAXPROCS=%d snapshot", gateName, last.gm))
			break
		}
		speedup := serial / ns
		verdict := "PASS"
		if speedup < minSpeedup {
			verdict = "FAIL"
			bad = append(bad, fmt.Sprintf("%s @ GOMAXPROCS=%d: speedup %.2fx < %.2fx required",
				gateName, last.gm, speedup, minSpeedup))
		}
		fmt.Fprintf(&b, "\nGate: %s @ GOMAXPROCS=%d speedup %.2fx (>= %.2fx required) — **%s**\n",
			gateName, last.gm, speedup, minSpeedup, verdict)
	}
	return b.String(), bad, nil
}

func main() {
	var (
		parseMode  = flag.Bool("parse", false, "parse go-test bench text from stdin to JSON on stdout")
		baseline   = flag.String("baseline", "", "baseline snapshot JSON")
		candidate  = flag.String("candidate", "", "candidate snapshot JSON")
		maxRegress = flag.Float64("max-regress", 0.25, "max allowed fractional ns/op regression")

		scaling    = flag.Bool("scaling", false, "render a multicore speedup table from per-GOMAXPROCS snapshot args")
		out        = flag.String("out", "", "with -scaling: also write the markdown table to this file")
		minSpeedup = flag.Float64("min-speedup", 1.0, "with -scaling: minimum required speedup of the gated variant")
		bench      = flag.String("scaling-bench", "BenchmarkEngineSharded", "with -scaling: benchmark family to tabulate")
		serialVar  = flag.String("serial-variant", "shards=1", "with -scaling: sub-benchmark used as the serial reference")
		gateVar    = flag.String("gate-variant", "shards=4", "with -scaling: sub-benchmark the speedup gate applies to")
	)
	flag.Parse()

	if *parseMode {
		snap, err := parse(os.Stdin)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		snap.Runner = currentRunner()
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}

	if *scaling {
		pts, err := loadScaling(flag.Args())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		md, bad, err := scalingReport(pts, *bench, *serialVar, *gateVar, *minSpeedup)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if *out != "" {
			if err := os.WriteFile(*out, []byte(md), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
		}
		fmt.Print(md)
		if len(bad) > 0 {
			fmt.Fprintf(os.Stderr, "\nbenchdiff: scaling gate failed:\n  %s\n", strings.Join(bad, "\n  "))
			os.Exit(1)
		}
		return
	}

	if *baseline == "" || *candidate == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: need -parse, -scaling, or -baseline and -candidate")
		os.Exit(2)
	}
	base, err := load(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cand, err := load(*candidate)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	warn, err := runnerGate(base, cand)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if warn != "" {
		fmt.Fprintln(os.Stderr, warn)
	}
	if bad := compare(base, cand, *maxRegress, os.Stdout); len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "\nbenchdiff: %d regression(s):\n  %s\n", len(bad), strings.Join(bad, "\n  "))
		os.Exit(1)
	}
	fmt.Println("benchdiff: all benchmarks within budget")
}
