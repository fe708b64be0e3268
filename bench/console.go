package main

// console.go is the console reader: closed-loop refresh bundles over
// one keep-alive HTTP connection — what one operator dashboard tab asks
// of the ops console on every refresh.

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// One refresh bundle: 8 full-retention range reads, 4 quantiles (two
// off the sketch tier, two exact), the incident list, the latest window
// and one long-poll catch-up on the window stream.
const (
	bundleRanges    = 8
	bundleQuantiles = 4
)

type reader struct {
	base   string
	client *http.Client
	tr     *tracer
	fan    []subscriber

	ranges, quantiles []string // request paths
	since             uint64   // long-poll cursor

	stopFlag atomic.Bool
	wg       sync.WaitGroup

	bundleNS                               []int64
	rangeNS, quantNS, incidentNS, windowNS []int64
	requests, bad, polled, fanDrained      int
	firstErr                               string
}

// newReader builds a reader whose range and quantile reads span from
// the given virtual time (the start of the store's history) to now.
func newReader(addr string, hosts []string, seed int64, from vtime, fan []subscriber, tr *tracer) *reader {
	r := &reader{
		base: "http://" + addr, tr: tr, fan: fan,
		client: &http.Client{
			Timeout: 10 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1,
				DialContext: (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			},
		},
	}
	for i := 0; i < bundleRanges; i++ {
		r.ranges = append(r.ranges, fmt.Sprintf("/api/series/%s/range?from=%d", analyzerSeries[i], from))
	}
	pick := newRNG(uint64(seed) ^ 0xc0501e)
	for i := 0; i < bundleQuantiles/2; i++ {
		r.quantiles = append(r.quantiles,
			fmt.Sprintf("/api/series/ingest.rtt.%s/quantile?q=0.99&from=%d", hosts[pick.intn(len(hosts))], from),
			fmt.Sprintf("/api/series/%s/quantile?q=0.99&from=%d", analyzerSeries[i+1], from))
	}
	return r
}

// get issues one request, drains the body and counts a non-200.
func (r *reader) get(name spanName, path string, lat *[]int64) {
	t0 := nowNS()
	resp, err := r.client.Get(r.base + path)
	status := 0
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		status = resp.StatusCode
	}
	t1 := nowNS()
	r.requests++
	if err != nil || status != http.StatusOK {
		r.bad++
		if r.firstErr == "" {
			r.firstErr = fmt.Sprintf("GET %s: status %d err %v", path, status, err)
		}
	}
	if lat != nil {
		*lat = append(*lat, t1-t0)
	}
	r.tr.record(name, true, 1, t0, t1)
}

// poll is the long-poll catch-up: wait_ms=0 returns what the replay ring
// holds after the cursor, and advances it.
func (r *reader) poll() {
	t0 := nowNS()
	resp, err := r.client.Get(fmt.Sprintf("%s/api/stream/windows?since=%d&wait_ms=0", r.base, r.since))
	r.requests++
	if err != nil {
		r.bad++
		return
	}
	next, n, derr := decodePoll(resp.Body)
	resp.Body.Close()
	if derr != nil || resp.StatusCode != http.StatusOK {
		r.bad++
		return
	}
	r.since, r.polled = next, r.polled+n
	r.tr.record(spanQueryPoll, true, n, t0, nowNS())
}

func (r *reader) bundle() {
	t0 := nowNS()
	for _, p := range r.ranges {
		r.get(spanQueryRange, p, &r.rangeNS)
	}
	for _, p := range r.quantiles {
		r.get(spanQueryQuantile, p, &r.quantNS)
	}
	r.get(spanQueryIncidents, "/api/incidents", &r.incidentNS)
	r.get(spanQueryWindows, "/api/windows/latest", &r.windowNS)
	r.poll()
	r.bundleNS = append(r.bundleNS, nowNS()-t0)
	r.drainFan()
}

// drainFan empties the in-process window-stream subscribers.
func (r *reader) drainFan() {
	for _, sub := range r.fan {
		for {
			if _, ok := sub.TryNext(); !ok {
				break
			}
			r.fanDrained++
		}
	}
}

// refreshPeriod is the dashboard's refresh timer: the reader is a closed
// loop with think time — the next bundle starts 50 ms after the previous
// one started, or at once if that one took longer — so the reader's work
// is a near-constant share of the run whatever the console's speed.
// Twenty bundles a second keep its P about a quarter busy. At ten the
// process idled so much that cpu_us_per_record spread 26 % between runs
// of the same code (an idle vCPU goes back to the host, and what a
// wake-up costs is the host's to decide); at forty the reader's own CPU
// was most of cpu_us_per_record (NOISE.md).
const refreshPeriod = 50 * time.Millisecond

// start runs bundles on the reader goroutine until stop.
func (r *reader) start() {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for !r.stopFlag.Load() {
			t0 := time.Now()
			r.bundle()
			if rest := refreshPeriod - time.Since(t0); rest > 0 {
				time.Sleep(rest)
			}
		}
	}()
}

// stop ends the reader goroutine, then catches the subscribers and the
// long-poll cursor up with whatever was published after its last bundle.
func (r *reader) stop() {
	r.stopFlag.Store(true)
	r.wg.Wait()
	r.drainFan()
	r.poll()
}

// run issues n bundles on the calling goroutine.
func (r *reader) run(n int) {
	for i := 0; i < n; i++ {
		r.bundle()
	}
}

func (r *reader) fill(res *result) {
	r.client.CloseIdleConnections()
	res.chk.ops(r.requests, r.bad, "console queries answered non-200 (first: "+r.firstErr+")")
	res.e2e["query_ms"] = nsQuantile(r.bundleNS, 0.5, 1e6)
	res.samples["query_ms"] = len(r.bundleNS)
	L := res.layer
	L["tail.query_p99_ms"] = nsQuantile(r.bundleNS, 0.99, 1e6)
	L["api.query_range_ms"] = nsQuantile(r.rangeNS, 0.5, 1e6)
	L["api.query_quantile_ms"] = nsQuantile(r.quantNS, 0.5, 1e6)
	L["api.query_incidents_ms"] = nsQuantile(r.incidentNS, 0.5, 1e6)
	L["api.query_windows_ms"] = nsQuantile(r.windowNS, 0.5, 1e6)
}

// decodePoll reads the long-poll reply's cursor and event count.
func decodePoll(body io.Reader) (next uint64, n int, err error) {
	var p struct {
		Count     int    `json:"count"`
		NextSince uint64 `json:"next_since"`
	}
	if err := json.NewDecoder(body).Decode(&p); err != nil {
		return 0, 0, err
	}
	return p.NextSince, p.Count, nil
}
