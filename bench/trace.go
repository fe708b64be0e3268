package main

// trace.go is the traced run's in-memory span recorder: spans are taken
// in bench/ around public calls into each layer (wrapper sinks, a
// wrapper MetricSink, timed adapter methods), kept in one slice, and
// reduced to the per-layer metrics and the budget table at exit. The
// end-to-end numbers never come from a traced section.

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

type spanName uint8

const (
	spanWindow         spanName = iota // one closed-loop / paced window, root of the budget
	spanPaceWait                       // open loop: generator idle until the next batch is due
	spanBox                            // proto: RecordBatch.ToUploadBatch
	spanUpload                         // wire: Client.Upload round trip
	spanJoinWait                       // generator: waiting for the second connection
	spanEnqueue                        // pipeline: Upload as seen by wire.Serve's sink (incl. Block wait)
	spanQueueWait                      // pipeline: enqueue → first delivery
	spanTSDBIngest                     // tsdb: UploadRecords (sketch tier)
	spanAggregator                     // daemon aggregator sink
	spanAnalyzerUpload                 // analyzer: boxed Upload
	spanDrainWait                      // pipeline: harness waits for ResultsDelivered
	spanTick                           // analyzer: Tick
	spanTSDBAppend                     // tsdb: MetricSink.Append (child of Tick)
	spanObserve                        // alert: Observe
	spanCatchUp                        // tsdb: Follower.CatchUp
	spanPublish                        // api: PublishWindow
	spanDeliver                        // api: event popped by the stream subscriber
	spanQueryRange
	spanQueryQuantile
	spanQueryIncidents
	spanQueryWindows
	spanQueryPoll
	spanCoreRun   // core: Cluster.Run of one window body
	spanCoreClose // core: the window-close event (DrainAll+Tick+Observe), up to the OnWindow hook
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"window", "gen.pace_wait", "proto.box", "wire.upload", "gen.join_wait",
	"pipeline.enqueue", "pipeline.queue_wait", "tsdb.ingest", "aggregator.upload",
	"analyzer.upload", "pipeline.drain_wait", "analyzer.tick", "tsdb.append",
	"alert.observe", "tsdb.catchup", "api.publish", "api.deliver",
	"api.query_range", "api.query_quantile", "api.query_incidents",
	"api.query_windows", "api.query_poll", "core.run", "core.window_close",
}

func (n spanName) String() string { return spanNames[n] }

// span is one timed call. Sync spans nest on the harness goroutine and
// make up the window budget; async spans ran on another goroutine (wire
// handlers, pipeline consumers, the console reader) and hang off the
// window that was open when they ended.
type span struct {
	name       spanName
	async      bool
	win        int32
	parent     int32
	units      int32 // records, points or batches covered, for per-unit rates
	start, end int64
}

type tracer struct {
	enabled atomic.Bool

	mu    sync.Mutex
	spans []span
	stack []int32 // open sync spans; harness goroutine only

	win     atomic.Int32
	winSpan atomic.Int32
	// enqAt holds the wall clock of each upload's enqueue, by upload
	// sequence number, so the first delivery can close its queue wait.
	enqAt [1 << 14]atomic.Int64

	prof *cpuProfile
}

func newTracer() *tracer {
	t := &tracer{spans: make([]span, 0, 1<<18)}
	t.winSpan.Store(-1)
	return t
}

// on reports whether spans are being recorded; a nil tracer is an
// untraced run.
func (t *tracer) on() bool { return t != nil && t.enabled.Load() }

func (t *tracer) setWindow(w int) {
	if t != nil {
		t.win.Store(int32(w))
	}
}

// begin opens a sync span on the harness goroutine.
func (t *tracer) begin(name spanName) int32 {
	if !t.on() {
		return -1
	}
	t.mu.Lock()
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, win: t.win.Load(), parent: parent, start: nowNS()})
	t.stack = append(t.stack, id)
	t.mu.Unlock()
	if name == spanWindow {
		t.winSpan.Store(id)
	}
	return id
}

func (t *tracer) end(id int32, units int) {
	if t == nil || id < 0 {
		return
	}
	now := nowNS()
	t.mu.Lock()
	t.spans[id].end = now
	t.spans[id].units = int32(units)
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	}
	t.mu.Unlock()
}

// sync times fn as a sync span; with tracing off it just runs fn.
func (t *tracer) sync(name spanName, units int, fn func()) {
	id := t.begin(name)
	fn()
	t.end(id, units)
}

// record adds a finished span. Sync ones hang off the innermost open
// sync span, async ones off the current window.
func (t *tracer) record(name spanName, async bool, units int, start, end int64) {
	if !t.on() {
		return
	}
	t.mu.Lock()
	parent := t.winSpan.Load()
	if !async {
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1]
		}
	}
	t.spans = append(t.spans, span{name: name, async: async, win: t.win.Load(), parent: parent,
		units: int32(units), start: start, end: end})
	t.mu.Unlock()
}

// markEnqueue / enqueuedAt carry an upload's enqueue time from the wire
// handler to its first delivery.
func (t *tracer) markEnqueue(seq uint64, at int64) {
	t.enqAt[seq%uint64(len(t.enqAt))].Store(at)
}

func (t *tracer) enqueuedAt(seq uint64) int64 {
	return t.enqAt[seq%uint64(len(t.enqAt))].Load()
}

// --- reduction -------------------------------------------------------

// spanStats is one span name's reduction over the traced section.
type spanStats struct {
	count   int
	syncs   int // how many of them ran on the harness goroutine
	units   int64
	totalNS int64
	selfNS  int64     // total minus sync children, sync spans only
	durs    []float64 // ns, sorted
}

func (s *spanStats) medianNS() float64 { return quantileSorted(s.durs, 0.5) }
func (s *spanStats) p99NS() float64    { return quantileSorted(s.durs, 0.99) }
func (s *spanStats) p90NS() float64    { return quantileSorted(s.durs, 0.90) }
func (s *spanStats) perUnitNS() float64 {
	if s.units == 0 {
		return 0
	}
	return float64(s.totalNS) / float64(s.units)
}
func (s *spanStats) meanNS() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.totalNS) / float64(s.count)
}

// reduce folds the span list by name. Self time is a span's duration
// minus the part its sync children cover.
func (t *tracer) reduce() [numSpanNames]spanStats {
	var out [numSpanNames]spanStats
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, sp := range t.spans {
		if !sp.async && sp.parent >= 0 && sp.end > 0 {
			child[sp.parent] += sp.end - sp.start
		}
	}
	for i, sp := range t.spans {
		if sp.end == 0 {
			continue
		}
		st := &out[sp.name]
		d := sp.end - sp.start
		st.count++
		st.units += int64(sp.units)
		st.totalNS += d
		st.durs = append(st.durs, float64(d))
		if !sp.async {
			st.syncs++
			st.selfNS += d - child[i]
		}
	}
	for i := range out {
		sort.Float64s(out[i].durs)
	}
	return out
}

// budget renders the window budget: every sync span's self time as a
// share of total window wall time. What the window span keeps for itself
// is the unaccounted share — harness loop, restamping, scheduling.
func budgetTable(red *[numSpanNames]spanStats) (lines []string, unaccountedPct float64) {
	wall := red[spanWindow].totalNS
	if wall == 0 {
		return nil, 0
	}
	n := float64(red[spanWindow].count)
	lines = append(lines, fmt.Sprintf("  %-22s %10s %8s %9s", "span (self time)", "ms/window", "share", "calls/win"))
	for name := spanName(0); name < numSpanNames; name++ {
		st := &red[name]
		if st.count == 0 || name == spanWindow {
			continue
		}
		label, ns := name.String(), st.selfNS
		if st.syncs == 0 { // off the harness goroutine: shown for scale only
			label, ns = "("+label+")", st.totalNS
		}
		lines = append(lines, fmt.Sprintf("  %-22s %10.3f %7.1f%% %9.1f",
			label, float64(ns)/n/1e6, 100*float64(ns)/float64(wall), float64(st.count)/n))
	}
	unaccountedPct = 100 * float64(red[spanWindow].selfNS) / float64(wall)
	lines = append(lines, fmt.Sprintf("  %-22s %10.3f %7.1f%%", "unaccounted",
		float64(red[spanWindow].selfNS)/n/1e6, unaccountedPct))
	lines = append(lines, "  (parenthesised rows ran on other goroutines, overlapping the rows above; they are not part of the sum)")
	return lines, unaccountedPct
}

// writeSpans dumps the raw spans, one per line, for offline inspection.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	for i, sp := range t.spans {
		fmt.Fprintf(w, "%d\t%s\tasync=%v\twin=%d\tparent=%d\tunits=%d\t%d\t%d\n",
			i, sp.name, sp.async, sp.win, sp.parent, sp.units, sp.start, sp.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
