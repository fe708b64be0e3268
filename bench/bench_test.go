package main

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifest holds BENCHMARK.json to the metric tables it is generated
// from, and the tables to the contract's limits.
func TestManifest(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if got := manifestJSON(); got != string(want) {
		t.Fatalf("BENCHMARK.json is stale: regenerate with `go run ./bench --manifest > BENCHMARK.json`")
	}
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %v", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	if len(workloadDefs) != len(workloadNames) {
		t.Fatalf("%d workload definitions for %d workloads", len(workloadDefs), len(workloadNames))
	}
	for i, w := range workloadDefs {
		check("workload", w.Name)
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in the manifest, %q in the runner", i, w.Name, workloadNames[i])
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
		if _, ok := windowsPerSecond[w.Name]; !ok {
			t.Errorf("workload %s has no work calibration", w.Name)
		}
	}
	hasSetup := false
	for _, d := range e2eMetrics {
		check("end-to-end metric", d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("end-to-end metrics lack setup_s [s, lower]")
	}
	if len(layerMetrics) > 128 {
		t.Errorf("%d per-layer metrics, at most 128", len(layerMetrics))
	}
	for _, d := range layerMetrics {
		check("per-layer metric", d.Name)
	}
}

// TestAdapter pins the one-adapter rule: stack.go alone imports the
// packages under test, and every listener binds loopback port 0.
func TestAdapter(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	listen := regexp.MustCompile(`(net\.Listen\("tcp", |Addr: )"([^"]*)"`)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasSuffix(f, "_test.go") {
			for _, m := range listen.FindAllStringSubmatch(string(src), -1) {
				if m[2] != "127.0.0.1:0" {
					t.Errorf("%s: listener on %q, want 127.0.0.1:0", f, m[2])
				}
			}
		}
		if f == "stack.go" {
			continue
		}
		parsed, err := parser.ParseFile(token.NewFileSet(), f, src, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range parsed.Imports {
			if p := strings.Trim(imp.Path.Value, `"`); p == "rpingmesh" || strings.HasPrefix(p, "rpingmesh/") {
				t.Errorf("%s imports %s: only stack.go may call into the packages under test", f, p)
			}
		}
	}
}

// TestLinkFaultGroundTruth pins what "located" means for a planted link
// fault, on the cases that failed runs before the rule was written: a link
// of one of the true link's two switches or an RNIC under its ToR counts,
// nothing farther away does.
func TestLinkFaultGroundTruth(t *testing.T) {
	tp, err := buildTopo(clos256)
	if err != nil {
		t.Fatal(err)
	}
	link := (&plantedFault{Kind: faultLinkDrop}).class()
	rnic := (&plantedFault{Kind: faultRNICDown}).class()
	for _, c := range []struct {
		truth         int
		entity, class string
		want          bool
	}{
		{654, "link:654", link, true},         // tor-3-7 → agg-3-1 itself
		{654, "link:655", link, true},         // the same cable, other direction
		{654, "link:653", link, true},         // agg-3-0 → tor-3-7: the ToR's other uplink (seed 423802683)
		{654, "link:316", link, false},        // tor-1-7 → agg-1-0: another pod
		{654, "link:653", rnic, false},        // right place, wrong class
		{236, "dev:rnic-1-88-0", rnic, true},  // a NIC under tor-1-3, the true link's ToR (seed 22944419721290)
		{654, "dev:rnic-1-88-0", rnic, false}, // a NIC under another ToR
		{236, "host:host-1-88", link, false},
	} {
		f := &plantedFault{Kind: faultLinkDrop, Link: c.truth}
		if got := f.matches(tp, c.entity, c.class); got != c.want {
			t.Errorf("fault on link %d: incident %s/%s located = %v, want %v", c.truth, c.entity, c.class, got, c.want)
		}
	}
}

// TestLostUploadsFailTheWindow closes the wire server under a live run:
// the uploads must be counted as failed and the drain barrier must give
// up and fail its window — once — instead of waiting for records that
// will never arrive.
func TestLostUploadsFailTheWindow(t *testing.T) {
	defer func(d time.Duration) { drainTimeout = d }(drainTimeout)
	drainTimeout = 50 * time.Millisecond
	p := liveParams{size: clos16, conns: 1}
	set, s, err := liveSetup(p, runConfig{workload: "live_ingest", seed: 1, seconds: 1, tiny: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	for _, c := range append([]*capture{set.healthy}, set.faulty...) {
		c.plan = planCapture(c, p.conns)
	}
	lr := &liveRun{p: p, set: set, s: s, chk: &checker{}}
	lr.window(0, nil)
	if lr.chk.failed != 0 || lr.uploadErr.Load() != 0 {
		t.Fatalf("healthy window: %d failed operations, %d upload errors: %v", lr.chk.failed, lr.uploadErr.Load(), lr.chk.notes)
	}
	s.srv.Close()
	start := time.Now()
	lr.window(1, nil)
	lr.window(2, nil)
	if took := time.Since(start); took > 20*drainTimeout {
		t.Errorf("two windows without a server took %v: the barrier waited more than once", took)
	}
	if lr.uploadErr.Load() == 0 {
		t.Error("uploads to a closed server reported no Client.Err")
	}
	if lr.missing != lr.sent-s.delivered() || lr.missing == 0 {
		t.Errorf("missing = %d, want sent %d - delivered %d", lr.missing, lr.sent, s.delivered())
	}
	if lr.chk.failed < 2 {
		t.Errorf("%d failed operations, want one per window without a server: %v", lr.chk.failed, lr.chk.notes)
	}
}

// settle waits for goroutines a finished workload is still winding down
// (closed HTTP connections, stopped consumers) and reports the count.
func settle(base int) int {
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// TestSmoke runs all four workloads at -scale tiny plus a tiny traced
// run: the output check must pass, every metric named in BENCHMARK.json
// must be emitted (and nothing else), no goroutine may outlive a
// workload, and one seed must give one fingerprint.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the four workloads at tiny scale")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	run := func(workload string, trace bool) *result {
		t.Helper()
		base := runtime.NumGoroutine()
		res, err := runWorkload(runConfig{workload: workload, seed: 1, seconds: 1, tiny: true, trace: trace})
		if err != nil {
			t.Fatalf("%s: %v", workload, err)
		}
		if res.chk.failed > 0 || res.chk.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", workload, res.chk.failed, res.chk.attempted, res.chk.notes)
		}
		if n := settle(base); n > base {
			buf := make([]byte, 1<<16)
			t.Errorf("%s: %d goroutines outlive the workload (%d before):\n%s", workload, n, base, buf[:runtime.Stack(buf, true)])
		}
		return res
	}
	fingerprints := map[string]string{}
	for _, w := range workloadNames {
		res := run(w, false)
		fingerprints[w] = res.fingerprint
		got := res.contract()
		if len(got.Metrics) != len(e2eMetrics) {
			t.Errorf("%s: %d end-to-end metrics emitted, %d named", w, len(got.Metrics), len(e2eMetrics))
		}
		for _, d := range e2eMetrics {
			v, ok := res.e2e[d.Name]
			if !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v (emitted: %v); every one must be measured and non-zero", w, d.Name, v, ok)
			}
		}
		for name := range res.e2e {
			if _, ok := got.Metrics[name]; !ok {
				t.Errorf("%s: metric %s is computed but not named in the manifest", w, name)
			}
		}
	}
	if again := run("sim_steady", false); again.fingerprint != fingerprints["sim_steady"] {
		t.Errorf("sim_steady: one seed, two fingerprints: %s then %s", fingerprints["sim_steady"], again.fingerprint)
	}

	traced := run("live_ingest", true)
	if traced.fingerprint != fingerprints["live_ingest"] {
		t.Errorf("live_ingest: one seed, two fingerprints: %s untraced, %s traced", fingerprints["live_ingest"], traced.fingerprint)
	}
	named := map[string]bool{}
	for _, d := range layerMetrics {
		named[d.Name] = true
	}
	for name := range traced.layer {
		if !named[name] {
			t.Errorf("traced run computes %s, which the manifest does not name", name)
		}
	}
	for _, name := range []string{"proto.box_ns_per_record", "wire.upload_rtt_us", "pipeline.enqueue_us_per_batch",
		"analyzer.tick_ms", "tsdb.ingest_ns_per_record", "alert.observe_us", "api.publish_us", "budget.unaccounted_pct"} {
		if traced.layer[name] <= 0 {
			t.Errorf("traced live_ingest: %s = %v, want a measurement", name, traced.layer[name])
		}
	}
	if len(traced.budget) == 0 {
		t.Error("traced live_ingest printed no budget table")
	}
}
