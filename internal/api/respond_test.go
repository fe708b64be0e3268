package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rpingmesh/internal/alert"
	"rpingmesh/internal/controller"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/tsdb"
)

type fakePeers struct{ st FedStatus }

func (p fakePeers) FedStatus() FedStatus { return p.st }

type fakeTenants []controller.TenantGrant

func (ts fakeTenants) TenantGrants() []controller.TenantGrant { return ts }

// tieredConfig makes every tier of the store small enough that a few
// hundred points span all three.
func tieredConfig() tsdb.Config {
	return tsdb.Config{
		RawCapacity: 8, WindowStep: 10 * sim.Second, WindowCapacity: 6,
		CoarseStep: sim.Minute, CoarseCapacity: 16,
	}
}

// fillTiered writes 300 s of one exact series (coarse buckets, then
// window buckets, then 8 raw points) and a sketch series beside it.
func fillTiered(db *tsdb.DB) {
	for i := 0; i < 300; i++ {
		t := sim.Time(i) * sim.Second
		db.Append("cluster.rtt.p50", t, 2400+float64(i)*0.37)
		db.AppendSketch("ingest.rtt.h1", t, 2000+float64(i%41)*13.5)
	}
}

// wiredServer is a console with every backend part present, over a store
// that spans all three tiers plus a sketch series.
func wiredServer(t testing.TB) (*Server, *tsdb.DB) {
	b, _, _, _ := testBackend(t)
	db := tsdb.Open(tieredConfig())
	fillTiered(db)
	b.TSDB = db
	b.Peers = fakePeers{FedStatus{
		Node: 1, Nodes: 3, Quorum: 2, Role: "leader", Leader: 1, QuorumOK: true,
		Peers: []PeerStatus{{Node: 2, Alive: true, AppliedSeq: 7}},
	}}
	b.Tenants = fakeTenants{{Name: "gold", Weight: 4, Hosts: 8, DemandPPS: 100, GrantedPPS: 80, Share: 0.8}}
	b.Admission = &Admission{Pipeline: fakeLoad{0.1}, Follower: fakeLag{3}}
	s := New(b, Config{})
	s.PublishWindow(report(0))
	s.PublishWindow(report(1))
	return s, db
}

func serve(h http.Handler, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// Bug: one NaN/±Inf point made /range and /quantile answer 200 with an
// empty body — the header was out before Encode failed, and the error
// was dropped. Now a non-finite point value is null, and any response
// that cannot be encoded is a 500 with a JSON error, counted in Errors.
func TestNonFiniteValues(t *testing.T) {
	b, _, _, db := testBackend(t)
	db.Append("a", 1, 1.5)
	db.Append("a", 2, math.NaN())
	db.Append("a", 3, math.Inf(1))
	db.Append("a", 4, math.Inf(-1))
	db.Append("nan", 2, math.NaN())
	s := New(b, Config{})
	h := s.Handler()

	rec := serve(h, "/api/series/a/range")
	want := `{"count":4,"points":[{"T":1,"V":1.5},{"T":2,"V":null},{"T":3,"V":null},{"T":4,"V":null}],"series":"a"}`
	if rec.Code != http.StatusOK || rec.Body.String() != want {
		t.Fatalf("range over non-finite values = %d %q\nwant 200 %q", rec.Code, rec.Body.String(), want)
	}

	// A quantile that comes out NaN cannot be said in JSON: 500, not 200 "".
	code, body := get(t, h, "/api/series/nan/quantile?q=0.5")
	if code != http.StatusInternalServerError || !strings.Contains(fmt.Sprint(body["error"]), "encode response") {
		t.Fatalf("NaN quantile = %d %v, want 500 with an encode error", code, body)
	}
	if m := s.Metrics()["series_quantile"]; m.Requests != 1 || m.Errors != 1 {
		t.Fatalf("series_quantile counters = %+v, want the 500 counted as an error", m)
	}
}

// Every endpoint's bytes are exactly json.Marshal of the value its
// handler encodes. The points array is the one hand-written encoder; the
// rest goes through encoding/json, so this also pins "compact, no
// trailing newline" everywhere.
func TestEncodersMatchEncodingJSON(t *testing.T) {
	s, db := wiredServer(t)
	h := s.Handler()
	const oddName = "<b>&\"\xff" // HTML, a quote and a byte that is not UTF-8
	db.Append(oddName, 1, 1)
	rangeWant := func(name string, from, to sim.Time) any {
		pts := db.Range(name, from, to)
		if pts == nil {
			pts = []tsdb.Point{}
		}
		return map[string]any{"series": name, "count": len(pts), "points": pts}
	}
	quantWant := func(name string, q float64) any {
		v, eb, _ := db.QuantileWithError(name, 0, math.MaxInt64, q)
		return map[string]any{"series": name, "q": q, "value": v, "error_bound": eb}
	}
	all := sim.Time(math.MaxInt64)
	lastWindow, _ := s.b.Windows.LastReport()
	window1, _ := s.b.Windows.ReportByIndex(1)
	incidents := s.b.Alerts.Incidents(alert.Filter{})
	incJSON := make([]incidentJSON, len(incidents))
	for i, in := range incidents {
		incJSON[i] = incidentToJSON(in)
	}
	evs, oldest := s.windows.ReplaySince(0)
	pst := s.b.Pipeline.Stats()

	cases := []struct {
		path string
		code int
		want any
	}{
		// All three tiers, each seam, a sketch series, and nothing at all.
		{"/api/series/cluster.rtt.p50/range", 200, rangeWant("cluster.rtt.p50", 0, all)},
		{"/api/series/cluster.rtt.p50/range?from=100000000000&to=295000000000", 200,
			rangeWant("cluster.rtt.p50", 100*sim.Second, 295*sim.Second)},
		{"/api/series/cluster.rtt.p50/range?from=293000000000", 200, rangeWant("cluster.rtt.p50", 293*sim.Second, all)},
		{"/api/series/cluster.rtt.p50/range?to=-1", 200, rangeWant("cluster.rtt.p50", 0, -1)},
		{"/api/series/ingest.rtt.h1/range", 200, rangeWant("ingest.rtt.h1", 0, all)},
		{"/api/series/cluster.rtt.p50/quantile?q=0.99", 200, quantWant("cluster.rtt.p50", 0.99)},
		{"/api/series/ingest.rtt.h1/quantile", 200, quantWant("ingest.rtt.h1", 0.5)},
		{"/api/series", 200, map[string]any{"series": db.Series()}},
		{"/api/series/nope/range", 404, map[string]string{"error": `no series "nope"`}},
		{"/api/series/" + url.PathEscape(oddName) + "/range", 200, rangeWant(oddName, 0, all)},
		{"/api/series/" + url.PathEscape(oddName) + "x/range", 404, map[string]string{"error": fmt.Sprintf("no series %q", oddName+"x")}},
		{"/api/series/nope/quantile", 404, map[string]string{"error": `no data for "nope" in range`}},
		{"/api/series/cluster.rtt.p50/range?from=x", 400, map[string]string{"error": `bad from "x"`}},
		{"/api/incidents", 200, map[string]any{"count": len(incJSON), "incidents": incJSON}},
		{"/api/incidents/1", 200, incJSON[0]},
		{"/api/alerts/stats", 200, s.b.Alerts.Stats()},
		{"/api/windows/latest", 200, lastWindow},
		{"/api/windows/1", 200, window1},
		{"/api/peers", 200, s.b.Peers.FedStatus()},
		{"/api/tenants", 200, map[string]any{"count": 1, "tenants": s.b.Tenants.TenantGrants()}},
		{"/api/pipeline", 200, map[string]any{
			"enqueued": pst.Enqueued, "dequeued": pst.Dequeued, "delivered": pst.Delivered,
			"results_delivered": pst.ResultsDelivered, "dropped_oldest": pst.DroppedOldest,
			"dropped_newest": pst.DroppedNewest, "results_shed": pst.ResultsShed,
			"block_waits": pst.BlockWaits, "max_lag_ns": int64(pst.Lag.Max),
			"queue_high_water": pst.QueueHighWater, "partitions": pst.Partitions,
		}},
		{"/api/diagnose/h1", 200, map[string]any{"host": "h1", "diagnoses": []string{"rnic at h1: root cause packet-corruption"}}},
		{"/api/stream/windows?since=0&wait_ms=0", 200, pollJSON{
			Events: evs, Count: len(evs), NextSince: evs[len(evs)-1].Seq, OldestRetained: oldest,
		}},
	}
	for _, c := range cases {
		rec := serve(h, c.path)
		if want := mustMarshal(t, c.want); rec.Code != c.code || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("GET %s = %d\n got %s\nwant %s", c.path, rec.Code, rec.Body.Bytes(), want)
		}
	}

	// The range series behind the cases above really did cross every tier.
	if st := db.Stats(); st.RawEvicted == 0 || st.WindowEvicted == 0 || st.CoarseBuckets == 0 || st.SketchSeries == 0 {
		t.Fatalf("fixture does not span the tiers: %+v", st)
	}

	// /api/metrics snapshots before its own request is counted.
	want := mustMarshal(t, s.Metrics())
	if rec := serve(h, "/api/metrics"); !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("GET /api/metrics\n got %s\nwant %s", rec.Body.Bytes(), want)
	}
	// /healthz carries a clock; everything around it is pinned.
	var hz map[string]any
	rec := serve(h, "/healthz")
	if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	fs := s.b.Peers.FedStatus()
	want = mustMarshal(t, map[string]any{
		"status": "ok", "uptime_ms": hz["uptime_ms"], "windows": 2, "series": len(db.Series()),
		"incidents_active": s.b.Alerts.Stats().ActiveCount, "shed_requests": 0,
		"fed": map[string]any{"node": fs.Node, "role": fs.Role, "leader": fs.Leader,
			"quorum_ok": fs.QuorumOK, "applied_seq": fs.AppliedSeq},
	})
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("GET /healthz\n got %s\nwant %s", rec.Body.Bytes(), want)
	}
}

// appendPoint against encoding/json over arbitrary bit patterns.
func FuzzAppendPoint(f *testing.F) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 2400.37, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, 1.5e21, 1e-10, 1e100, 1e-100,
		123456789.125, math.MaxFloat64, math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		f.Add(int64(40960000000000), math.Float64bits(v))
	}
	f.Add(int64(math.MinInt64), uint64(0x7ff0000000000001))
	f.Add(int64(math.MaxInt64), uint64(0x8000000000000001))
	f.Fuzz(func(t *testing.T, ts int64, bits uint64) {
		p := tsdb.Point{T: sim.Time(ts), V: math.Float64frombits(bits)}
		got := appendPoint([]byte("x"), p)[1:]
		if !json.Valid(got) {
			t.Fatalf("appendPoint(%+v) = %q: not JSON", p, got)
		}
		want, err := json.Marshal(p)
		if err != nil {
			// encoding/json refuses exactly the non-finite values.
			want = []byte(`{"T":` + strconv.FormatInt(ts, 10) + `,"V":null}`)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("appendPoint(%+v) = %q, want %q", p, got, want)
		}
	})
}

// ROADMAP item 6e: query parameters are a trust boundary. Whatever they
// hold, a series or stream read answers 200, 400 or 404 with a JSON
// body, and nothing panics.
func FuzzSeriesQuery(f *testing.F) {
	f.Add("0", "", "0.5", "0", "0")
	f.Add("100000000000", "295000000000", "0.99", "1", "5")
	f.Add("-5", "9223372036854775807", "1", "2", "")
	f.Add("295000000000", "0", "0", "99", "0")
	f.Add("x", "", "NaN", "-1", "-1")
	f.Add("9223372036854775808", "1e3", "+Inf", "18446744073709551616", "9223372036854775807")
	f.Add(" 1", "0x10", "2", "", "1e3")
	s, _ := wiredServer(f)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, from, to, q, since, waitMS string) {
		rq := "?" + url.Values{"from": {from}, "to": {to}, "q": {q}}.Encode()
		for _, path := range []string{
			"/api/series/cluster.rtt.p50/range" + rq,
			"/api/series/cluster.rtt.p50/quantile" + rq,
			"/api/series/ingest.rtt.h1/range" + rq,
			"/api/series/ingest.rtt.h1/quantile" + rq,
			"/api/series/nope/range" + rq,
			"/api/stream/windows?" + url.Values{"since": {since}, "wait_ms": {waitMS}}.Encode(),
		} {
			// A poll with nothing to return parks until its client leaves;
			// this client has left before it asks.
			ctx, cancel := context.WithCancel(context.Background())
			if strings.HasPrefix(path, "/api/stream/") {
				cancel()
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil).WithContext(ctx))
			cancel()
			if since == "" && rec.Header().Get("Content-Type") == "text/event-stream" {
				continue // no since: the SSE form of the route, which is not JSON
			}
			switch rec.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusNotFound:
			default:
				t.Fatalf("GET %s = %d %s", path, rec.Code, rec.Body.Bytes())
			}
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("GET %s = %d with a body that is not JSON: %q", path, rec.Code, rec.Body.Bytes())
			}
		}
	})
}

// Every mounted GET route answers JSON with an honest Content-Length
// (so net/http never falls back to chunked encoding). The push routes
// are asked in their long-poll form; their SSE form is not JSON.
func TestEveryGETAnswersJSON(t *testing.T) {
	s, _ := wiredServer(t)
	urls := map[string]string{
		"GET /healthz":                    "/healthz",
		"GET /api/metrics":                "/api/metrics",
		"GET /api/peers":                  "/api/peers",
		"GET /api/tenants":                "/api/tenants",
		"GET /api/pipeline/stats":         "/api/pipeline/stats",
		"GET /api/pipeline":               "/api/pipeline",
		"GET /api/diagnose/{host}":        "/api/diagnose/h1",
		"GET /api/incidents":              "/api/incidents",
		"GET /api/incidents/{id}":         "/api/incidents/1",
		"GET /api/alerts/stats":           "/api/alerts/stats",
		"GET /api/windows/latest":         "/api/windows/latest",
		"GET /api/windows/{n}":            "/api/windows/1",
		"GET /api/series":                 "/api/series",
		"GET /api/series/{name}/range":    "/api/series/cluster.rtt.p50/range",
		"GET /api/series/{name}/quantile": "/api/series/ingest.rtt.h1/quantile?q=0.9",
		"GET /api/stream/windows":         "/api/stream/windows?since=0&wait_ms=0",
		"GET /api/stream/incidents":       "/api/stream/incidents?since=0&wait_ms=0",
	}
	mounted := 0
	record := func(pattern, _ string, _ http.HandlerFunc) {
		if !strings.HasPrefix(pattern, "GET ") {
			return
		}
		mounted++
		path, ok := urls[pattern]
		if !ok {
			t.Errorf("route %q is mounted but this test has no URL for it", pattern)
			return
		}
		rec := serve(s.Handler(), path)
		if rec.Code != http.StatusOK {
			t.Errorf("GET %s = %d %s", path, rec.Code, rec.Body.Bytes())
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Errorf("GET %s: body is not JSON: %q", path, rec.Body.Bytes())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("GET %s: Content-Type %q", path, ct)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
			t.Errorf("GET %s: Content-Length %q for a body of %d bytes", path, cl, rec.Body.Len())
		}
	}
	s.mount(record, record, record)
	if mounted != len(urls) {
		t.Errorf("%d GET routes mounted, %d listed here", mounted, len(urls))
	}
}

// Readers on /range while the follower behind them replays deltas and
// swaps in snapshots: every body is whole (valid, count = points) and in
// time order. Run under -race.
func TestConsoleReadsDuringCatchUp(t *testing.T) {
	cfg := tieredConfig()
	cfg.JournalCapacity = 64 // small: a burst falls off it and forces a snapshot
	primary := tsdb.Open(cfg)
	follower := tsdb.NewFollower(primary)
	primary.Append("s", 0, 0)
	follower.CatchUp()
	h := New(Backend{TSDB: follower}, Config{RequestTimeout: time.Minute}).Handler()

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			primary.Append("s", sim.Time(i)*sim.Second, float64(i))
			// Mostly short deltas, now and then a gap wider than the journal.
			if i%7 == 0 && i%500 > 100 {
				follower.CatchUp()
			}
		}
	}()

	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 300; i++ {
				rec := serve(h, "/api/series/s/range")
				var body struct {
					Count  int
					Points []tsdb.Point
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &body); rec.Code != http.StatusOK || err != nil {
					t.Errorf("range = %d, %v: %q", rec.Code, err, rec.Body.Bytes())
					return
				}
				if body.Count != len(body.Points) || body.Count == 0 {
					t.Errorf("count %d over %d points", body.Count, len(body.Points))
					return
				}
				for k := 1; k < len(body.Points); k++ {
					if body.Points[k].T < body.Points[k-1].T {
						t.Errorf("points out of time order at %d: %v", k, body.Points)
						return
					}
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
	if st := follower.FollowerStats(); st.Snapshots == 0 || st.Deltas == 0 {
		t.Fatalf("the follower never took both paths: %+v", st)
	}
}
