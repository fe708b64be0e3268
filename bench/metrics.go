package main

// metrics.go fixes the names every later performance or simplicity PR is
// judged by: the workloads, the end-to-end metrics with their regression
// bounds, and the per-layer list of the traced run. BENCHMARK.json is
// generated from these tables (go run ./bench --manifest) and the smoke
// test holds the two together.

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"live_ingest", "closed loop at saturation: 64k-record windows replayed over 2 wire connections, so proto boxing, wire JSON and round trips, and pipeline carry the cost; sim does none"},
	{"live_console", "open loop at 30000 records/s beside a console reader and 64 hub subscribers: ingest is about a third busy, so the latencies show api, tsdb reads and follower catch-up, and alert under load"},
	{"sim_steady", "healthy 256-host simulated cluster on the serial engine: sim, simnet, rnic and agent do nearly all the work, wire is absent and the analyzer sees no anomaly"},
	{"sim_faults", "the same cluster under a seeded fault schedule with a 64-host service job: timeouts, path tracing, analyzer voting, alert folding and the incident stream carry the load"},
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// e2eMetrics are what a user of the system sees. Bound is the share of
// the parent's median by which the metric may get worse. The counts keep
// the issue's tight bounds: for one seed they repeat exactly, and between
// seeds they spread by under a third of the bound. Every clock-derived
// metric is at the contract's cap of 0.25: on the shared 2-vCPU box ten
// runs of the same code spread by 5–21 % of their median (NOISE.md), so
// nothing tighter would separate a regression from the neighbours' load.
var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"records_per_s", "1/s", "higher", 0.25},
	{"vsec_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_record", "us", "lower", 0.25},
	{"allocs_per_record", "count", "lower", 0.02},
	{"wire_bytes_per_record", "B", "lower", 0.01},
	{"window_publish_ms", "ms", "lower", 0.25},
	{"query_ms", "ms", "lower", 0.25},
	{"detect_virtual_s", "s", "lower", 0.01},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// layerMetrics are the traced run's per-layer numbers. They carry no
// bound: they explain a move in an end-to-end metric, they do not gate.
var layerMetrics = []metricDef{
	{Name: "gen.late_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.allocs_per_record", Unit: "count", Better: "lower"},
	{Name: "proto.box_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "proto.binary_codec_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "proto.binary_bytes_per_record", Unit: "B", Better: "lower"},
	{Name: "wire.upload_rtt_us", Unit: "us", Better: "lower"},
	{Name: "wire.upload_rtt_p99_us", Unit: "us", Better: "lower"},
	{Name: "wire.self_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "wire.upload_errors", Unit: "count", Better: "lower"},
	{Name: "wire.control_rtt_us", Unit: "us", Better: "lower"},
	{Name: "controller.pinglists_us", Unit: "us", Better: "lower"},
	{Name: "pipeline.enqueue_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "pipeline.queue_wait_us", Unit: "us", Better: "lower"},
	{Name: "pipeline.drain_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.max_depth", Unit: "count", Better: "lower"},
	{Name: "pipeline.dropped", Unit: "count", Better: "lower"},
	{Name: "analyzer.upload_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "analyzer.tick_ms", Unit: "ms", Better: "lower"},
	{Name: "analyzer.tick_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "analyzer.records_per_window", Unit: "count", Better: "higher"},
	{Name: "analyzer.problems_per_window", Unit: "count", Better: "lower"},
	{Name: "tsdb.ingest_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "tsdb.append_ns_per_point", Unit: "ns", Better: "lower"},
	{Name: "tsdb.catchup_us", Unit: "us", Better: "lower"},
	{Name: "tsdb.follower_lag_max", Unit: "count", Better: "lower"},
	{Name: "tsdb.bytes_mb", Unit: "MB", Better: "lower"},
	{Name: "tsdb.range_us", Unit: "us", Better: "lower"},
	{Name: "tsdb.quantile_us", Unit: "us", Better: "lower"},
	{Name: "alert.observe_us", Unit: "us", Better: "lower"},
	{Name: "alert.events_per_window", Unit: "count", Better: "lower"},
	{Name: "api.publish_us", Unit: "us", Better: "lower"},
	{Name: "api.deliver_us", Unit: "us", Better: "lower"},
	{Name: "api.hub_shed", Unit: "count", Better: "lower"},
	{Name: "api.hub_evicted", Unit: "count", Better: "lower"},
	{Name: "api.shed_429", Unit: "count", Better: "lower"},
	{Name: "api.query_range_ms", Unit: "ms", Better: "lower"},
	{Name: "api.query_quantile_ms", Unit: "ms", Better: "lower"},
	{Name: "api.query_incidents_ms", Unit: "ms", Better: "lower"},
	{Name: "api.query_windows_ms", Unit: "ms", Better: "lower"},
	{Name: "core.run_ms_per_window", Unit: "ms", Better: "lower"},
	{Name: "sim.events_per_vsec", Unit: "1/s", Better: "lower"},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "simnet.packets_per_vsec", Unit: "1/s", Better: "lower"},
	{Name: "simnet.drops_per_vsec", Unit: "1/s", Better: "lower"},
	{Name: "agent.probes_per_vsec", Unit: "1/s", Better: "higher"},
	{Name: "agent.timeouts_per_vsec", Unit: "1/s", Better: "lower"},
	{Name: "agent.uploads_per_vsec", Unit: "1/s", Better: "higher"},
	{Name: "agent.traces_per_vsec", Unit: "1/s", Better: "lower"},
	{Name: "rt.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "rt.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "rt.heap_inuse_mb", Unit: "MB", Better: "lower"},
	{Name: "tail.window_publish_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "tail.query_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "tail.upload_from_due_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "budget.unaccounted_pct", Unit: "%", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

func init() {
	for _, l := range cpuLayers {
		layerMetrics = append(layerMetrics, metricDef{Name: "cpu_share." + l, Unit: "%", Better: "lower"})
	}
}

// manifestJSON renders BENCHMARK.json from the tables above.
func manifestJSON() string {
	m := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}{
		Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"},
		RunSeconds: defaultSeconds, Workloads: workloadDefs,
		EndToEnd: e2eMetrics, PerLayer: layerMetrics,
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // static tables: a bug alone can break this
	}
	return string(out) + "\n"
}

// contractValue / contractResult are the one JSON object the driver
// reads off the last line of standard output.
type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type contractResult struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

// contract reports every end-to-end metric (timed run) or every
// per-layer metric (traced run); a layer that does not run on this
// workload reads 0.
func (r *result) contract() contractResult {
	defs, vals := e2eMetrics, r.e2e
	if r.cfg.trace {
		defs, vals = layerMetrics, r.layer
	}
	out := contractResult{Correct: r.chk.failed == 0, Attempted: max(r.chk.attempted, 1), Failed: r.chk.failed,
		Metrics: make(map[string]contractValue, len(defs))}
	for _, d := range defs {
		out.Metrics[d.Name] = contractValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

// print writes the human-readable report.
func (r *result) print(w io.Writer) {
	mode := "timed run"
	if r.cfg.trace {
		mode = "traced run (end-to-end numbers below are NOT the benchmark's: they include tracing)"
	}
	fmt.Fprintf(w, "== %s  seed=%d seconds=%d  %s\n", r.cfg.workload, r.cfg.seed, r.cfg.seconds, mode)
	for _, d := range e2eMetrics {
		n := ""
		if c, ok := r.samples[d.Name]; ok {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Fprintf(w, "  %-24s %14.4f %-5s%s\n", d.Name, r.e2e[d.Name], d.Unit, n)
	}
	fmt.Fprintf(w, "  %-24s %14d\n  %-24s %14d\n", "ops_attempted", r.chk.attempted, "ops_failed", r.chk.failed)
	fmt.Fprintf(w, "  %-24s %14.4f s      (the measured stack's own; setup_s is the median of %d)\n", "setup_first_s", r.setupFirst, r.cfg.setups())
	fmt.Fprintf(w, "  %-24s %s\n", "report_fingerprint", r.fingerprint)
	for _, f := range r.faults {
		if f.Detected == 0 {
			fmt.Fprintf(w, "  planted %-14s %s injected at %9.3f s, never detected\n", f.Kind, f.where(), vsecs(f.Injected))
			continue
		}
		fmt.Fprintf(w, "  planted %-14s %s injected at %9.3f s, detected after %7.3f virtual s as %s\n",
			f.Kind, f.where(), vsecs(f.Injected), vsecs(f.Detected-f.Injected), f.DetectedAs)
	}
	for _, n := range r.chk.notes {
		fmt.Fprintf(w, "  FAILED: %s\n", n)
	}
	if !r.cfg.trace {
		return
	}
	fmt.Fprintln(w, "  -- per-layer")
	for _, d := range layerMetrics {
		if v, ok := r.layer[d.Name]; ok && (v != 0 || !strings.HasPrefix(d.Name, "cpu_share.")) {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.Name, v, d.Unit)
		}
	}
	if len(r.budget) > 0 {
		fmt.Fprintln(w, "  -- window budget (traced windows)")
		for _, l := range r.budget {
			fmt.Fprintln(w, l)
		}
	}
}
