// Command bench is the repository benchmark: it drives the live spine
// (RecordBatch → wire → pipeline → analyzer + tsdb → alert → api) and the
// simulated spine (core.Cluster) over four fixed workloads, prints every
// end-to-end metric by name with its unit, checks the outputs, and
// offers a separate traced run for the per-layer numbers. See README.md.
//
//	go run ./bench                              all four workloads, one child process each
//	go run ./bench --trace 1                    … each followed by its traced run and budget table
//	go run ./bench --workload live_ingest       one workload in this process; last line is the result JSON
//	go run ./bench --sets 3 --repeat 5          noise mode: the table committed as NOISE.md
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

func main() {
	var cfg runConfig
	var (
		traceFlag = flag.Int("trace", 0, "1: traced run (per-layer metrics, spans, CPU profile); 0: timed run (end-to-end metrics)")
		scale     = flag.String("scale", "full", "full, or tiny: the smoke test's scale (quarter fabric, one set-up, one window per segment)")
		sets      = flag.Int("sets", 0, "noise mode: run this many sets of -repeat runs per workload and print the noise table")
		repeat    = flag.Int("repeat", 5, "noise mode: runs per set and workload, each with another seed")
		manifest  = flag.Bool("manifest", false, "print BENCHMARK.json as generated from the metric tables and exit")
	)
	flag.StringVar(&cfg.workload, "workload", "", "run one workload in this process: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed generates the same inputs")
	flag.IntVar(&cfg.seconds, "seconds", defaultSeconds, "scales the fixed work: the timed section lasts about this long on the reference box")
	flag.StringVar(&cfg.spans, "spans", "", "with --workload and --trace 1: write the raw spans to this file at exit")
	flag.Parse()
	cfg.trace = *traceFlag != 0
	cfg.tiny = *scale == "tiny"
	if *scale != "full" && *scale != "tiny" {
		fatalf("unknown -scale %q (want full or tiny)", *scale)
	}
	if cfg.seconds < 1 {
		fatalf("-seconds must be at least 1")
	}
	if cfg.spans != "" && (cfg.workload == "" || !cfg.trace) {
		fatalf("--spans names one traced run's file: give --workload and --trace 1 with it")
	}

	switch {
	case *manifest:
		fmt.Print(manifestJSON())
	case cfg.workload != "":
		os.Exit(runChild(cfg))
	case *sets > 0:
		os.Exit(runNoise(cfg, *sets, *repeat))
	default:
		os.Exit(runAll(cfg))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// runWorkload dispatches one workload in this process.
func runWorkload(cfg runConfig) (*result, error) {
	runtime.GOMAXPROCS(1) // see nproc2
	size, quarter := clos256, clos64
	if cfg.tiny {
		size, quarter = clos16, clos16
	}
	switch cfg.workload {
	case "live_ingest":
		return runLive(liveParams{size: size, conns: nproc2()}, cfg)
	case "live_console":
		runtime.GOMAXPROCS(nproc2())
		return runLive(liveParams{size: quarter, conns: 1, fan: consoleFanout, rate: openLoopRate, reader: true}, cfg)
	case "sim_steady":
		return runSim(simParams{}, cfg)
	case "sim_faults":
		return runSim(simParams{faults: true}, cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
}

// runChild runs one workload and prints its report; the last line of
// standard output is the result object the driver reads.
func runChild(cfg runConfig) int {
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", cfg.workload, err)
		return 1
	}
	res.print(os.Stdout)
	line, err := json.Marshal(res.contract())
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if res.chk.failed > 0 {
		return 1
	}
	return 0
}
