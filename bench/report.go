package main

// report.go is the parent side: one child process per workload (the
// command re-executes itself), so peak RSS, GC state and failures do not
// leak between workloads; the all-workloads summary; and the noise mode
// whose table is committed as NOISE.md.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// childRun re-executes this binary for one workload and returns its
// report text and the result object from its last line.
func childRun(cfg runConfig, workload string, seed int64, trace bool) (string, contractResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", contractResult{}, err
	}
	args := []string{"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(cfg.seconds), "--trace", "0"}
	if trace {
		args[len(args)-1] = "1"
	}
	if cfg.tiny {
		args = append(args, "--scale", "tiny")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	text := strings.TrimRight(string(out), "\n")
	cut := strings.LastIndexByte(text, '\n')
	var res contractResult
	if err := json.Unmarshal([]byte(text[cut+1:]), &res); err != nil {
		return text, res, fmt.Errorf("%s: no result line (%v; exit: %v)", workload, err, runErr)
	}
	return text[:max(cut, 0)], res, nil
}

// reportField reads one named value off a child's report text.
func reportField(text, name string) string {
	for _, line := range strings.Split(text, "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == name {
			return f[1]
		}
	}
	return ""
}

// runAll runs the workloads one child each, prints their reports and a
// summary object. It claims nothing: the summary ends with "claim": null.
func runAll(cfg runConfig) int {
	type row struct {
		Workload  string             `json:"workload"`
		Correct   bool               `json:"correct"`
		Attempted int                `json:"ops_attempted"`
		Failed    int                `json:"ops_failed"`
		Metrics   map[string]float64 `json:"metrics"`
		Layers    map[string]float64 `json:"per_layer,omitempty"`
	}
	var rows []row
	exit := 0
	for _, w := range workloadNames {
		text, res, err := childRun(cfg, w, cfg.seed, false)
		fmt.Println(text)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			exit = 1
			continue
		}
		r := row{Workload: w, Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: flatten(res)}
		if cfg.trace {
			ttext, tres, terr := childRun(cfg, w, cfg.seed, true)
			fmt.Println(ttext)
			if terr != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", terr)
				exit = 1
			} else {
				r.Layers = flatten(tres)
				r.Correct = r.Correct && tres.Correct
				// One seed, two runs: the reports must be the same.
				if a, b := reportField(text, "report_fingerprint"), reportField(ttext, "report_fingerprint"); a != b {
					fmt.Fprintf(os.Stderr, "bench: %s: one seed, two report fingerprints: %s timed, %s traced\n", w, a, b)
					r.Correct = false
				}
			}
		}
		if !r.Correct {
			exit = 1
		}
		rows = append(rows, r)
	}
	units := map[string]string{}
	for _, d := range e2eMetrics {
		units[d.Name] = d.Unit
	}
	summary, err := json.MarshalIndent(struct {
		Seed      int64             `json:"seed"`
		Seconds   int               `json:"seconds"`
		Units     map[string]string `json:"units"`
		Workloads []row             `json:"workloads"`
		Claim     *string           `json:"claim"`
	}{cfg.seed, cfg.seconds, units, rows, nil}, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(summary))
	return exit
}

func flatten(res contractResult) map[string]float64 {
	out := make(map[string]float64, len(res.Metrics))
	for k, v := range res.Metrics {
		out[k] = v.Value
	}
	return out
}

// sameSeedTolerance is how far two runs of one seed may differ on the
// metrics that are counts: noise mode fails when they differ by more.
var sameSeedTolerance = map[string]float64{
	"wire_bytes_per_record": 0,
	"detect_virtual_s":      0,
	"allocs_per_record":     0.01,
}

// setupFirstRow is the extra noise-table row for the measured stack's own
// set-up, to compare with setup_s (the median of the repeated set-ups).
const setupFirstRow = "setup_first_s"

// runNoise measures the benchmark against itself: sets × repeat runs of
// every workload, workloads interleaved round-robin inside each repeat,
// repeat r of every set on seed r+1. For each workload × end-to-end
// metric it prints the set medians, the spread inside a set (distance
// between the quartiles as a share of the median: seeds and machine
// together, what the driver sees), the largest gap between two sets'
// medians (the number the bounds are derived from) and the largest
// difference between two runs of one seed (the machine alone). It fails
// when one seed gives two report fingerprints, or two values of a count.
func runNoise(cfg runConfig, sets, repeat int) int {
	rows := []metricDef{e2eMetrics[0], {Name: setupFirstRow, Unit: "s"}} // e2eMetrics[0] is setup_s
	rows = append(rows, e2eMetrics[1:]...)
	// values[workload][metric][set][repeat]; NaN where a run failed
	values := map[string]map[string][][]float64{}
	prints := map[string][]string{} // prints[workload][repeat]: the first set's fingerprint
	for _, w := range workloadNames {
		values[w] = map[string][][]float64{}
		for _, d := range rows {
			values[w][d.Name] = make([][]float64, sets)
		}
		prints[w] = make([]string, repeat)
	}
	exit := 0
	for s := 0; s < sets; s++ {
		for r := 0; r < repeat; r++ {
			for _, w := range workloadNames {
				text, res, err := childRun(cfg, w, int64(r+1), false)
				ok := err == nil && res.Correct
				if !ok {
					fmt.Fprintf(os.Stderr, "bench: set %d repeat %d %s: correct=%v err=%v\n", s+1, r+1, w, res.Correct, err)
					exit = 1
				}
				first, _ := strconv.ParseFloat(reportField(text, setupFirstRow), 64)
				for _, d := range rows {
					v := math.NaN()
					if ok && d.Name == setupFirstRow {
						v = first
					} else if ok {
						v = res.Metrics[d.Name].Value
					}
					values[w][d.Name][s] = append(values[w][d.Name][s], v)
				}
				if fp := reportField(text, "report_fingerprint"); ok && prints[w][r] == "" {
					prints[w][r] = fp
				} else if ok && fp != prints[w][r] {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: two report fingerprints, %s then %s (set %d)\n", w, r+1, prints[w][r], fp, s+1)
					exit = 1
				}
				fmt.Fprintf(os.Stderr, "bench: set %d/%d repeat %d/%d %s done\n", s+1, sets, r+1, repeat, w)
			}
		}
	}

	var b bytes.Buffer
	fmt.Fprintf(&b, "| workload | metric | unit | set medians | worst spread (IQR/median) | largest set-to-set gap | largest same-seed difference | bound |\n")
	fmt.Fprintf(&b, "|---|---|---|---|---|---|---|---|\n")
	for _, w := range workloadNames {
		for _, d := range rows {
			var meds []string
			var medVals []float64
			worstSpread := 0.0
			for _, runs := range values[w][d.Name] {
				runs = finite(runs)
				if len(runs) == 0 {
					continue
				}
				m := median(runs)
				medVals = append(medVals, m)
				meds = append(meds, fmt.Sprintf("%.5g", m))
				worstSpread = max(worstSpread, spread(runs))
			}
			gap := 0.0
			for _, a := range medVals {
				for _, c := range medVals {
					if a != 0 {
						gap = max(gap, (c-a)/a)
					}
				}
			}
			same := 0.0
			for r := 0; r < repeat; r++ {
				for s := 1; s < sets; s++ {
					a, c := values[w][d.Name][0][r], values[w][d.Name][s][r]
					if a != 0 && !math.IsNaN(a) && !math.IsNaN(c) {
						same = max(same, math.Abs(c-a)/a)
					}
				}
			}
			if tol, ok := sameSeedTolerance[d.Name]; ok && same > tol {
				fmt.Fprintf(os.Stderr, "bench: %s %s: two runs of one seed differ by %.4f %% (allowed %.0f %%)\n", w, d.Name, 100*same, 100*tol)
				exit = 1
			}
			bound := "—"
			if d.Bound > 0 {
				bound = fmt.Sprintf("%.0f %%", 100*d.Bound)
			}
			fmt.Fprintf(&b, "| %s | %s | %s | %s | %.2f %% | %.2f %% | %.2f %% | %s |\n",
				w, d.Name, d.Unit, strings.Join(meds, " / "), 100*worstSpread, 100*gap, 100*same, bound)
		}
	}
	fmt.Print(b.String())
	return exit
}

// finite drops the NaNs failed runs left behind.
func finite(v []float64) []float64 {
	var out []float64
	for _, x := range v {
		if !math.IsNaN(x) {
			out = append(out, x)
		}
	}
	return out
}

// spread is the driver's steadiness figure: the distance between the
// first and third quartile (Python's statistics.quantiles(n=4), the
// exclusive method) as a share of the median.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := exclusiveQuantile(v, 0.25), exclusiveQuantile(v, 0.75)
	return (q3 - q1) / m
}
