package api

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rpingmesh/internal/alert"
	"rpingmesh/internal/analyzer"
	"rpingmesh/internal/pipeline"
	"rpingmesh/internal/proto"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
	"rpingmesh/internal/tsdb"
)

// fakeWindows is an in-memory WindowSource with trim-aware numbering.
type fakeWindows struct {
	mu      sync.Mutex
	reports []analyzer.WindowReport
	first   int
	delay   time.Duration // per-call stall, for the timeout test
}

func (f *fakeWindows) add(rep analyzer.WindowReport) {
	f.mu.Lock()
	f.reports = append(f.reports, rep)
	f.mu.Unlock()
}

func (f *fakeWindows) LastReport() (analyzer.WindowReport, bool) {
	time.Sleep(f.delay)
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.reports) == 0 {
		return analyzer.WindowReport{}, false
	}
	return f.reports[len(f.reports)-1], true
}

func (f *fakeWindows) ReportByIndex(n int) (analyzer.WindowReport, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n < f.first || n >= f.first+len(f.reports) {
		return analyzer.WindowReport{}, false
	}
	return f.reports[n-f.first], true
}

func (f *fakeWindows) FirstRetainedWindow() int { f.mu.Lock(); defer f.mu.Unlock(); return f.first }

func (f *fakeWindows) TotalWindows() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.first + len(f.reports)
}

func report(idx int, probs ...analyzer.Problem) analyzer.WindowReport {
	return analyzer.WindowReport{
		Index: idx, Start: sim.Time(idx) * 20 * sim.Second,
		End: sim.Time(idx+1) * 20 * sim.Second, Problems: probs,
	}
}

// testBackend wires a fully populated backend over in-memory tiers.
func testBackend(t testing.TB) (Backend, *fakeWindows, *alert.Engine, *tsdb.DB) {
	t.Helper()
	fw := &fakeWindows{}
	eng := alert.NewEngine(alert.Config{ResolveAfter: 2})
	db := tsdb.Open(tsdb.Config{})
	pipe := pipeline.New(pipeline.Config{Partitions: 2, Capacity: 16})

	// Two windows: a P0 RNIC problem, then quiet.
	w0 := report(0, analyzer.Problem{
		Kind: analyzer.ProblemRNIC, Priority: analyzer.P0,
		Device: topo.DeviceID("r1"), Host: topo.HostID("h1"), Evidence: 9,
	})
	w1 := report(1)
	fw.add(w0)
	fw.add(w1)
	eng.Observe(w0)
	eng.Observe(w1)
	for i := 0; i < 10; i++ {
		db.Append("cluster.rtt.p50", sim.Time(i)*20*sim.Second, float64(100+i))
	}
	pipe.UploadRecords(&proto.RecordBatch{Host: topo.HostID("h1"), Seq: 1})
	pipe.DrainAll()

	b := Backend{
		Windows: fw, TSDB: db, Pipeline: pipe, Alerts: eng,
		Diagnose: func(host string) (any, error) {
			if host != "h1" {
				return nil, ErrUnknownHost
			}
			return []string{"rnic at h1: root cause packet-corruption"}, nil
		},
	}
	return b, fw, eng, db
}

// get issues a request against the handler and decodes the JSON body.
func get(t *testing.T, h http.Handler, path string) (int, map[string]any) {
	t.Helper()
	rec := serve(h, path)
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("GET %s: bad JSON %q: %v", path, rec.Body.String(), err)
	}
	return rec.Code, body
}

func TestHealthz(t *testing.T) {
	b, _, _, _ := testBackend(t)
	s := New(b, Config{})
	code, body := get(t, s.Handler(), "/healthz")
	if code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz = %d %v", code, body)
	}
	if body["windows"] != float64(2) || body["incidents_active"] != float64(1) {
		t.Fatalf("healthz body = %v", body)
	}
}

func TestIncidentEndpoints(t *testing.T) {
	b, _, eng, _ := testBackend(t)
	s := New(b, Config{})
	h := s.Handler()

	code, body := get(t, h, "/api/incidents")
	if code != http.StatusOK || body["count"] != float64(1) {
		t.Fatalf("incidents = %d %v", code, body)
	}
	inc := body["incidents"].([]any)[0].(map[string]any)
	if inc["entity"] != "dev:r1" || inc["class"] != "rnic" ||
		inc["severity"] != "critical" || inc["state"] != "open" {
		t.Fatalf("incident json = %v", inc)
	}
	if len(inc["transitions"].([]any)) == 0 {
		t.Fatal("no transitions serialized")
	}

	// Filters.
	if code, body = get(t, h, "/api/incidents?state=resolved"); body["count"] != float64(0) {
		t.Fatalf("resolved filter: %d %v", code, body)
	}
	if code, body = get(t, h, "/api/incidents?severity=critical&entity=dev:r1"); body["count"] != float64(1) {
		t.Fatalf("severity+entity filter: %d %v", code, body)
	}
	if code, _ = get(t, h, "/api/incidents?state=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad state gave %d", code)
	}

	// Lookup by ID.
	id := uint64(inc["id"].(float64))
	if code, _ = get(t, h, fmt.Sprintf("/api/incidents/%d", id)); code != http.StatusOK {
		t.Fatalf("incident by id gave %d", code)
	}
	if code, _ = get(t, h, "/api/incidents/999"); code != http.StatusNotFound {
		t.Fatalf("missing incident gave %d", code)
	}
	if code, _ = get(t, h, "/api/incidents/abc"); code != http.StatusBadRequest {
		t.Fatalf("bad id gave %d", code)
	}

	// Engine stats endpoint.
	code, body = get(t, h, "/api/alerts/stats")
	if code != http.StatusOK || body["Opened"] != float64(1) {
		t.Fatalf("alerts/stats = %d %v", code, body)
	}
	_ = eng
}

func TestWindowEndpoints(t *testing.T) {
	b, fw, _, _ := testBackend(t)
	fw.first = 1 // simulate retention trimming window 0
	fw.mu.Lock()
	fw.reports = fw.reports[1:]
	fw.mu.Unlock()

	s := New(b, Config{})
	h := s.Handler()

	code, body := get(t, h, "/api/windows/latest")
	if code != http.StatusOK || body["Index"] != float64(1) {
		t.Fatalf("latest = %d %v", code, body)
	}
	if code, body = get(t, h, "/api/windows/1"); code != http.StatusOK || body["Index"] != float64(1) {
		t.Fatalf("window 1 = %d %v", code, body)
	}
	// Trimmed window: 404 naming the retained range.
	code, body = get(t, h, "/api/windows/0")
	if code != http.StatusNotFound || !strings.Contains(body["error"].(string), "[1, 2)") {
		t.Fatalf("trimmed window = %d %v", code, body)
	}
	if code, _ = get(t, h, "/api/windows/xyz"); code != http.StatusBadRequest {
		t.Fatalf("bad window number gave %d", code)
	}
}

func TestSeriesEndpoints(t *testing.T) {
	b, _, _, _ := testBackend(t)
	s := New(b, Config{})
	h := s.Handler()

	code, body := get(t, h, "/api/series")
	if code != http.StatusOK || len(body["series"].([]any)) != 1 {
		t.Fatalf("series list = %d %v", code, body)
	}
	code, body = get(t, h, "/api/series/cluster.rtt.p50/range")
	if code != http.StatusOK || body["count"] != float64(10) {
		t.Fatalf("range = %d %v", code, body)
	}
	// Bounded range.
	code, body = get(t, h,
		fmt.Sprintf("/api/series/cluster.rtt.p50/range?from=0&to=%d", 60*sim.Second))
	if code != http.StatusOK || body["count"] != float64(4) {
		t.Fatalf("bounded range = %d %v", code, body)
	}
	code, body = get(t, h, "/api/series/cluster.rtt.p50/quantile?q=0.5")
	if code != http.StatusOK || body["value"].(float64) < 100 {
		t.Fatalf("quantile = %d %v", code, body)
	}
	// A known series with nothing in [from, to] is an empty array, not
	// null; only an unknown series is a 404.
	code, body = get(t, h,
		fmt.Sprintf("/api/series/cluster.rtt.p50/range?from=%d", 1000*sim.Second))
	if pts, ok := body["points"].([]any); code != http.StatusOK || body["count"] != float64(0) || !ok || len(pts) != 0 {
		t.Fatalf("empty range = %d %v, want 200 with count 0 and points []", code, body)
	}
	if code, _ = get(t, h, "/api/series/nope/range"); code != http.StatusNotFound {
		t.Fatalf("unknown series gave %d", code)
	}
	if code, _ = get(t, h, "/api/series/cluster.rtt.p50/quantile?q=2"); code != http.StatusBadRequest {
		t.Fatalf("bad quantile gave %d", code)
	}
	if code, _ = get(t, h, "/api/series/cluster.rtt.p50/range?from=x"); code != http.StatusBadRequest {
		t.Fatalf("bad from gave %d", code)
	}
}

func TestPipelineStatsEndpoint(t *testing.T) {
	b, _, _, _ := testBackend(t)
	s := New(b, Config{})
	code, body := get(t, s.Handler(), "/api/pipeline/stats")
	if code != http.StatusOK || body["enqueued"] != float64(1) || body["delivered"] != float64(1) {
		t.Fatalf("pipeline stats = %d %v", code, body)
	}
	if len(body["partitions"].([]any)) != 2 {
		t.Fatalf("partitions = %v", body["partitions"])
	}
}

func TestDiagnoseEndpoint(t *testing.T) {
	b, _, _, _ := testBackend(t)
	s := New(b, Config{})
	h := s.Handler()

	// POST is the documented verb.
	req := httptest.NewRequest(http.MethodPost, "/api/diagnose/h1", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "packet-corruption") {
		t.Fatalf("diagnose = %d %s", rec.Code, rec.Body.String())
	}
	if code, _ := get(t, h, "/api/diagnose/h1"); code != http.StatusOK {
		t.Fatalf("GET diagnose gave %d", code)
	}
	if code, _ := get(t, h, "/api/diagnose/ghost"); code != http.StatusNotFound {
		t.Fatalf("unknown host gave %d", code)
	}

	// Unwired deployments answer 501, not 500.
	b.Diagnose = nil
	s2 := New(b, Config{})
	if code, _ := get(t, s2.Handler(), "/api/diagnose/h1"); code != http.StatusNotImplemented {
		t.Fatalf("nil diagnose gave %d", code)
	}
}

func TestNilBackendPartsAnswer503(t *testing.T) {
	s := New(Backend{}, Config{})
	h := s.Handler()
	for _, path := range []string{
		"/api/incidents", "/api/windows/latest", "/api/series",
		"/api/pipeline/stats", "/api/alerts/stats",
	} {
		if code, _ := get(t, h, path); code != http.StatusServiceUnavailable {
			t.Fatalf("%s with empty backend gave %d", path, code)
		}
	}
	// healthz still answers.
	if code, _ := get(t, h, "/healthz"); code != http.StatusOK {
		t.Fatal("healthz must work with an empty backend")
	}
}

func TestEndpointMetricsCounters(t *testing.T) {
	b, _, _, _ := testBackend(t)
	s := New(b, Config{})
	h := s.Handler()

	get(t, h, "/healthz")
	get(t, h, "/healthz")
	get(t, h, "/api/incidents?state=bogus") // error

	m := s.Metrics()
	if m["healthz"].Requests != 2 || m["healthz"].Errors != 0 {
		t.Fatalf("healthz counters = %+v", m["healthz"])
	}
	if m["incidents"].Requests != 1 || m["incidents"].Errors != 1 {
		t.Fatalf("incidents counters = %+v", m["incidents"])
	}

	// The counters are themselves served.
	code, body := get(t, h, "/api/metrics")
	if code != http.StatusOK || body["healthz"] == nil {
		t.Fatalf("metrics endpoint = %d %v", code, body)
	}
}

func TestRequestTimeout(t *testing.T) {
	b, fw, _, _ := testBackend(t)
	fw.delay = 200 * time.Millisecond
	s := New(b, Config{RequestTimeout: 20 * time.Millisecond})

	req := httptest.NewRequest(http.MethodGet, "/api/windows/latest", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("stalled backend gave %d, want 503 from the timeout handler", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "timed out") {
		t.Fatalf("timeout body = %q", rec.Body.String())
	}
}

// The server really listens, serves, and drains gracefully.
func TestStartServeShutdown(t *testing.T) {
	b, _, _, _ := testBackend(t)
	s := New(b, Config{Addr: "127.0.0.1:0"})
	if err := s.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	url := "http://" + s.Addr()

	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatalf("live GET: %v", err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(out), `"ok"`) {
		t.Fatalf("live healthz = %d %s", resp.StatusCode, out)
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("server still answering after shutdown")
	}
	// Idempotent.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// The API reads from foreign goroutines while the backend keeps being
// fed — the exact live-deployment topology, run under -race in CI.
func TestConcurrentQueriesDuringIngest(t *testing.T) {
	b, fw, eng, db := testBackend(t)
	// A generous request timeout: this test pins race-safety of reads
	// during ingest, and under -race on a loaded single-core runner the
	// default 5 s budget can starve a reader into a spurious 503.
	s := New(b, Config{RequestTimeout: time.Minute})
	h := s.Handler()

	stop := make(chan struct{})
	var writers sync.WaitGroup
	writers.Add(1)
	go func() {
		defer writers.Done()
		for w := 2; ; w++ {
			select {
			case <-stop:
				return
			default:
			}
			var probs []analyzer.Problem
			if w%2 == 0 {
				probs = append(probs, analyzer.Problem{
					Kind: analyzer.ProblemRNIC, Priority: analyzer.P1,
					Device: topo.DeviceID(fmt.Sprintf("r%d", w%7)),
				})
			}
			rep := report(w, probs...)
			fw.add(rep)
			eng.Observe(rep)
			db.Append("cluster.rtt.p50", rep.End, float64(w))
		}
	}()

	var readers sync.WaitGroup
	paths := []string{
		"/healthz", "/api/incidents", "/api/incidents?archived=true",
		"/api/windows/latest", "/api/series/cluster.rtt.p50/range",
		"/api/series/cluster.rtt.p50/quantile?q=0.99",
		"/api/pipeline/stats", "/api/metrics", "/api/alerts/stats",
	}
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; i < 200; i++ {
				path := paths[(i+r)%len(paths)]
				req := httptest.NewRequest(http.MethodGet, path, nil)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code >= 500 {
					t.Errorf("GET %s = %d", path, rec.Code)
					return
				}
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	writers.Wait()
}
