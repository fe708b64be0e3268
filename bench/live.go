package main

// live.go drives the live spine: captured agent RecordBatches replayed
// over loopback TCP into the daemon's wiring, closed loop at saturation
// (live_ingest) or open loop at a fixed rate beside a console reader
// (live_console).

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// liveParams separates the two live workloads.
type liveParams struct {
	size  closSize
	conns int     // upload connections (and generator goroutines)
	fan   int     // in-process window-stream subscribers drained by the reader
	rate  float64 // records/s offered; 0 = closed loop at saturation
	// reader runs console refresh bundles beside ingest for the whole
	// timed section; without it the bundles run after it, unloaded.
	reader bool
}

const (
	// cycleLen windows make one fault cycle: two faulty windows (the
	// incident opens, then is seen again) and six healthy ones (three clean
	// windows resolve it). Faults alternate between the captures, so one
	// incident key re-opens every 16 windows — under the alert engine's
	// three-opens-in-30-windows flap suppression, however long the run.
	cycleLen      = 8
	faultyFrom    = 2
	faultyTo      = 4 // exclusive
	liveWarmup    = 2 // healthy windows before the timed section
	liveSegments  = 6
	openLoopRate  = 30000
	consoleFanout = 64
)

// liveKinds are the faults the live captures carry: one RNIC problem and
// one switch-link problem, so both analyzer paths (ToR-mesh detection,
// Algorithm 1 voting) run on replayed data.
var liveKinds = []faultKind{faultRNICDown, faultLinkDrop}

// liveRun is one workload process's live state.
type liveRun struct {
	p   liveParams
	set *captureSet
	s   *liveStack
	tr  *tracer
	chk *checker

	sent      uint64 // records uploaded so far
	missing   uint64 // of those, written off by a drain barrier that timed out
	uploads   int
	uploadErr atomic.Int64
	faults    []*plantedFault
	events    int // incident-stream events seen

	// second connection's worker
	work chan liveJob
	done chan struct{}

	publishNS []int64 // last upload returned → window event popped
	lateNS    []int64 // open loop: send start − due time
	dueNS     []int64 // open loop: upload done − due time
	lagMax    uint64
}

type liveJob struct {
	c     *capture
	idx   []int
	start vtime
	seq   uint64
}

func liveSetup(p liveParams, cfg runConfig, tr *tracer) (*captureSet, *liveStack, error) {
	r := newRNG(uint64(cfg.seed))
	set, err := captureWindows(p.size, cfg.seed, liveKinds, r)
	if err != nil {
		return nil, nil, err
	}
	s, err := newLiveStack(set, cfg.seed, p.conns, p.fan, tr)
	if err != nil {
		return nil, nil, err
	}
	return set, s, nil
}

// captureFor maps a global window index onto the capture it replays.
func (lr *liveRun) captureFor(g int) *capture {
	if pos := g % cycleLen; pos >= faultyFrom && pos < faultyTo {
		return lr.set.faulty[(g/cycleLen)%len(lr.set.faulty)]
	}
	return lr.set.healthy
}

// plan splits a capture's batches over the connections by host, so each
// host's uploads stay in order on one connection.
func planCapture(c *capture, conns int) [][]int {
	hostConn := map[string]int{}
	out := make([][]int, conns)
	for i, b := range c.batches {
		k, ok := hostConn[string(b.Host)]
		if !ok {
			k = len(hostConn) % conns
			hostConn[string(b.Host)] = k
		}
		out[k] = append(out[k], i)
	}
	return out
}

// sendAll ships one connection's share of a window, restamping each
// batch header with the window's virtual clock. It allocates nothing of
// its own; ToUploadBatch's boxing is the proto layer's cost.
func (lr *liveRun) sendAll(conn int, j liveJob) {
	for k, i := range j.idx {
		b := j.c.batches[i]
		b.Sent = j.start + j.c.offset[i]
		b.Seq = j.seq + uint64(k)
		if err := lr.s.upload(conn, b); err != nil {
			lr.uploadErr.Add(1)
		}
	}
}

// window replays global window g: uploads, drain barrier, window close,
// pop the window event. It returns the records analysed.
func (lr *liveRun) window(g int, pace *pacer) int {
	c := lr.captureFor(g)
	start := liveEpoch + vtime(g)*windowLen
	lr.tr.setWindow(g)
	id := lr.tr.begin(spanWindow)

	if pos := g % cycleLen; pos == faultyFrom {
		f := *c.fault
		f.Injected = start + c.faultOffset
		f.Cleared = start + vtime(faultyTo-faultyFrom)*windowLen
		lr.faults = append(lr.faults, &f)
	}

	seq := uint64(g) << 12
	if pace != nil {
		lr.sendPaced(c, start, seq, pace)
	} else {
		for k := 1; k < lr.p.conns; k++ {
			lr.work <- liveJob{c: c, idx: c.plan[k], start: start, seq: seq + uint64(k)<<10}
		}
		lr.sendAll(0, liveJob{c: c, idx: c.plan[0], start: start, seq: seq})
		if lr.p.conns > 1 {
			jid := lr.tr.begin(spanJoinWait)
			for k := 1; k < lr.p.conns; k++ {
				<-lr.done
			}
			lr.tr.end(jid, 0)
		}
	}
	lastReturn := nowNS()
	lr.sent += uint64(c.records)
	lr.uploads += len(c.batches)

	did := lr.tr.begin(spanDrainWait)
	lr.drain(g)
	lr.tr.end(did, 0)

	if lr.tr.on() {
		if lag := lr.s.followerLag(); lag > lr.lagMax {
			lr.lagMax = lag
		}
	}
	rep := lr.s.closeWindow(start + windowLen)

	pid := lr.tr.begin(spanDeliver)
	ev, ok := lr.s.popWindow()
	lr.tr.end(pid, 1)
	lr.publishNS = append(lr.publishNS, nowNS()-lastReturn)
	lr.chk.windowEvent(g, rep, ev, ok)
	lr.events += lr.chk.drainIncidents(lr.s.popIncident, lr.set.tp, lr.faults)
	lr.tr.end(id, c.records)
	return c.records
}

// drainTimeout bounds the drain barrier. A window drains in milliseconds;
// an upload the server never saw (Client.Err after a failed redial) would
// otherwise keep the barrier waiting for ever. Ten seconds is longer than
// any stall a shared box has shown and short against the driver's limit
// for a run.
var drainTimeout = 10 * time.Second

// drain waits until the pipeline has delivered every record sent so far.
// On a timeout the window is counted as failed and the missing records
// are written off, so that later windows wait only for their own; once
// records are missing no later window waits at all.
func (lr *liveRun) drain(g int) {
	deadline := nowNS() + int64(drainTimeout)
	if lr.missing > 0 {
		deadline = 0
	}
	wait := 20 * time.Microsecond
	for lr.s.delivered()+lr.missing < lr.sent {
		if nowNS() >= deadline {
			got := lr.s.delivered()
			lr.chk.op(false, "window %d: pipeline delivered %d of the %d records sent", g, got, lr.sent)
			lr.missing = lr.sent - got
			return
		}
		time.Sleep(wait)
		if wait < time.Millisecond {
			wait *= 2
		}
	}
	lr.chk.op(true, "")
}

// pacer is the open-loop schedule: batch k is due when the records
// before it would have been offered at the fixed rate.
type pacer struct {
	t0      int64 // wall ns of record 0
	nsPer   float64
	records int64 // offered so far
}

func (p *pacer) due() int64 { return p.t0 + int64(float64(p.records)*p.nsPer) }

// sendPaced is the open loop: one connection, each batch sent no earlier
// than its due time and timed from it, so a stall's wait is charged to
// the uploads it delays.
func (lr *liveRun) sendPaced(c *capture, start vtime, seq uint64, p *pacer) {
	for i, b := range c.batches {
		due := p.due()
		if now := nowNS(); now < due {
			t0 := now
			time.Sleep(time.Duration(due - now))
			lr.tr.record(spanPaceWait, false, 0, t0, nowNS())
		}
		lr.lateNS = append(lr.lateNS, nowNS()-due)
		b.Sent = start + c.offset[i]
		b.Seq = seq + uint64(i)
		if err := lr.s.upload(0, b); err != nil {
			lr.uploadErr.Add(1)
		}
		lr.dueNS = append(lr.dueNS, nowNS()-due)
		p.records += int64(b.Len())
	}
}

func runLive(p liveParams, cfg runConfig) (*result, error) {
	res := newResult(cfg)
	if err := measureLive(p, cfg, res); err != nil {
		return nil, err
	}
	return res, repeatSetups(cfg, res, func() (func(), error) {
		_, s, err := liveSetup(p, cfg, nil)
		if err != nil {
			return nil, err
		}
		return s.close, nil
	})
}

// measureLive sets the stack up once, runs the workload on it and tears
// it down.
func measureLive(p liveParams, cfg runConfig, res *result) error {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	set, s, err := liveSetup(p, cfg, tr)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer s.close()
	res.e2e["setup_s"] = float64(nowNS()) / 1e9

	lr := &liveRun{p: p, set: set, s: s, tr: tr, chk: res.chk,
		work: make(chan liveJob), done: make(chan struct{})}
	for _, c := range append([]*capture{set.healthy}, set.faulty...) {
		c.plan = planCapture(c, p.conns)
	}
	var workers sync.WaitGroup
	for k := 1; k < p.conns; k++ {
		workers.Add(1)
		go func(conn int) {
			defer workers.Done()
			for j := range lr.work {
				lr.sendAll(conn, j)
				lr.done <- struct{}{}
			}
		}(k)
	}
	defer func() { close(lr.work); workers.Wait() }()

	windows := cfg.windows(liveSegments)
	perSeg := windows / liveSegments
	capacity := (liveWarmup + windows) * len(set.healthy.batches)
	lr.publishNS = make([]int64, 0, liveWarmup+windows)
	if p.rate > 0 {
		lr.lateNS = make([]int64, 0, capacity)
		lr.dueNS = make([]int64, 0, capacity)
	}
	s.reports = make([]windowReport, 0, liveWarmup+windows)

	collect()
	var pace *pacer
	if p.rate > 0 {
		pace = &pacer{t0: nowNS(), nsPer: 1e9 / p.rate}
	}
	for g := 0; g < liveWarmup; g++ {
		lr.window(g, pace)
	}
	lr.publishNS, lr.lateNS, lr.dueNS = lr.publishNS[:0], lr.lateNS[:0], lr.dueNS[:0]

	var rd *reader
	if p.reader {
		rd = newReader(s.httpAddr(), set.hostNames(), cfg.seed, 0, s.fanout, tr)
		rd.start()
	}

	// The timed section: fixed work, cut into equal segments. In a traced
	// run the first two segments stay untraced, to price the tracing.
	sec := newSection(tr, tracedFrom(cfg))
	wireBefore := s.wireBytes()
	for seg := 0; seg < liveSegments; seg++ {
		sec.beginSegment(seg)
		records := 0
		for k := 0; k < perSeg; k++ {
			records += lr.window(liveWarmup+seg*perSeg+k, pace)
		}
		sec.endSegment(records, float64(perSeg)*vsecs(windowLen))
	}
	sec.finish()
	wireBytes := s.wireBytes() - wireBefore
	res.e2e["peak_rss_mb"] = peakRSSMB()
	if rd != nil {
		// Every window — warm-up included — must have reached each of the
		// in-process subscribers and the long-poll cursor, none shed.
		rd.stop()
		seen := liveWarmup + windows
		res.chk.op(rd.fanDrained == p.fan*seen, "fan-out subscribers drained %d window events, want %d × %d", rd.fanDrained, p.fan, seen)
		res.chk.op(rd.polled == seen, "long-poll cursor saw %d window events, want %d", rd.polled, seen)
	}

	// Open-loop backlog: how far behind schedule the generator ended, in
	// windows' worth of offered time. Not judged at tiny scale, which is
	// not a measurement (the smoke test also runs under the race detector,
	// ten times slower than the offered rate assumes).
	if pace != nil && !cfg.tiny {
		behind := float64(nowNS()-pace.due()) / (float64(set.healthy.records) * pace.nsPer)
		res.chk.op(behind <= 1, "open-loop backlog at the end is %.2f windows (> 1)", behind)
	}

	records := float64(sec.records)
	sec.fill(res)
	res.e2e["wire_bytes_per_record"] = float64(wireBytes) / records
	res.e2e["window_publish_ms"] = nsQuantile(lr.publishNS, 0.5, 1e6)
	res.samples["window_publish_ms"] = len(lr.publishNS)
	res.layer["tail.window_publish_p90_ms"] = nsQuantile(lr.publishNS, 0.9, 1e6)
	res.e2e["detect_virtual_s"] = meanDetect(lr.faults)
	res.faults = lr.faults

	// Failures are counted, not hidden.
	res.chk.ops(lr.uploads, int(lr.uploadErr.Load()), "uploads with Client.Err")
	snap := s.snapshot()
	res.chk.liveAccounting(lr, snap)
	res.chk.faultsDetected(lr.faults, liveEpoch+vtime(liveWarmup+windows)*windowLen)
	res.fingerprint = fingerprint(s.reports)

	// Unloaded console bundles when no reader ran beside ingest.
	if rd == nil {
		rd = newReader(s.httpAddr(), set.hostNames(), cfg.seed, 0, nil, tr)
		rd.run(cfg.queryProbes())
	}
	rd.fill(res)

	if cfg.trace {
		lr.fillLayers(res, sec, snap)
	}
	return nil
}

// fillLayers reduces the traced section to the per-layer list.
func (lr *liveRun) fillLayers(res *result, sec *section, snap liveSnapshot) {
	red := lr.tr.reduce()
	L := res.layer
	tracedRecords := float64(sec.tracedRecords)
	windows := float64(red[spanWindow].count)

	L["gen.late_ms"] = nsQuantile(lr.lateNS, 0.5, 1e6)
	L["gen.allocs_per_record"] = lr.genAllocsPerRecord()
	L["tail.upload_from_due_p99_ms"] = nsQuantile(lr.dueNS, 0.99, 1e6)

	L["proto.box_ns_per_record"] = red[spanBox].perUnitNS()
	if ns, bytes, records, err := codecProbe(lr.set.healthy.batches); err == nil {
		L["proto.binary_codec_ns_per_record"] = float64(ns) / float64(records)
		L["proto.binary_bytes_per_record"] = float64(bytes) / float64(records)
	} else {
		res.chk.op(false, "binary codec probe: %v", err)
	}

	up, enq := &red[spanUpload], &red[spanEnqueue]
	L["wire.upload_rtt_us"] = up.medianNS() / 1e3
	L["wire.upload_rtt_p99_us"] = up.p99NS() / 1e3
	if up.count > 0 {
		L["wire.self_us_per_batch"] = float64(up.totalNS-enq.totalNS) / float64(up.count) / 1e3
	}
	L["wire.upload_errors"] = float64(lr.uploadErr.Load())
	wireNS, localNS := lr.s.controlProbe()
	L["wire.control_rtt_us"] = nsQuantile(wireNS, 0.5, 1e3)
	L["controller.pinglists_us"] = nsQuantile(localNS, 0.5, 1e3)

	L["pipeline.enqueue_us_per_batch"] = enq.meanNS() / 1e3
	L["pipeline.queue_wait_us"] = red[spanQueueWait].medianNS() / 1e3
	L["pipeline.drain_wait_ms"] = red[spanDrainWait].medianNS() / 1e6
	L["pipeline.max_depth"] = float64(snap.pipe.QueueHighWater)
	L["pipeline.dropped"] = float64(snap.pipe.Dropped())

	L["analyzer.upload_ns_per_record"] = red[spanAnalyzerUpload].perUnitNS()
	L["analyzer.tick_ms"] = red[spanTick].medianNS() / 1e6
	L["analyzer.tick_p90_ms"] = red[spanTick].p90NS() / 1e6
	if windows > 0 {
		L["analyzer.records_per_window"] = tracedRecords / windows
	}
	L["analyzer.problems_per_window"] = problemsPerWindow(lr.s.reports)

	L["tsdb.ingest_ns_per_record"] = red[spanTSDBIngest].perUnitNS()
	L["tsdb.append_ns_per_point"] = red[spanTSDBAppend].perUnitNS()
	L["tsdb.catchup_us"] = red[spanCatchUp].medianNS() / 1e3
	L["tsdb.follower_lag_max"] = float64(lr.lagMax)
	L["tsdb.bytes_mb"] = snap.tsdbMB()
	rangeNS, quantNS := lr.s.storeProbe()
	L["tsdb.range_us"] = nsQuantile(rangeNS, 0.5, 1e3)
	L["tsdb.quantile_us"] = nsQuantile(quantNS, 0.5, 1e3)

	L["alert.observe_us"] = red[spanObserve].medianNS() / 1e3
	if n := len(lr.s.reports); n > 0 {
		L["alert.events_per_window"] = float64(lr.events) / float64(n)
	}

	L["api.publish_us"] = red[spanPublish].medianNS() / 1e3
	L["api.deliver_us"] = red[spanDeliver].medianNS() / 1e3
	shed, evicted := snap.hubLoss()
	L["api.hub_shed"] = float64(shed)
	L["api.hub_evicted"] = float64(evicted)
	L["api.shed_429"] = float64(snap.shed429)

	lines, unaccounted := budgetTable(&red)
	res.budget = lines
	L["budget.unaccounted_pct"] = unaccounted
	if path := res.cfg.spans; path != "" {
		if err := lr.tr.writeSpans(path); err != nil {
			res.chk.op(false, "write spans: %v", err)
		}
	}
}

// genAllocsPerRecord measures the generator alone: one healthy window's
// restamping loop with the upload stubbed out.
func (lr *liveRun) genAllocsPerRecord() float64 {
	c := lr.set.healthy
	before := readMeter()
	for i, b := range c.batches {
		b.Sent = liveEpoch + c.offset[i]
		b.Seq = uint64(i)
	}
	after := readMeter()
	return float64(after.mallocs-before.mallocs) / float64(c.records)
}

func meanDetect(faults []*plantedFault) float64 {
	var sum float64
	n := 0
	for _, f := range faults {
		if f.Detected > 0 {
			sum += (f.Detected - f.Injected).Seconds()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func problemsPerWindow(reps []windowReport) float64 {
	if len(reps) == 0 {
		return 0
	}
	n := 0
	for _, r := range reps {
		n += len(r.Problems)
	}
	return float64(n) / float64(len(reps))
}
