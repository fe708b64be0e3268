package main

// sim.go drives the simulated spine: the 256-host core.Cluster on the
// serial engine with a console attached, healthy (sim_steady) or under a
// seeded fault schedule with a service job driving service tracing
// (sim_faults).

import "fmt"

type simParams struct {
	// faults plants the seeded fault schedule and starts the service job;
	// without it the cluster stays healthy and one fault is planted after
	// the timed section, only to give detect_virtual_s a value.
	faults bool
}

const (
	simWarmupWindows = 2           // 40 virtual s, discarded
	faultLifetime    = 30          // virtual s a planted fault stays active
	closeEps         = vtime(1000) // the window-close event is run apart from the window body, 1 µs wide
)

// simFaultPlan is the fixed schedule: which fault kind is injected how
// many virtual seconds after the timed section starts. Every fault gets
// most of its first window to show itself, so detection does not depend
// on the target the seed picks; the seed moves each injection by under
// faultJitterMS. The two link faults do not overlap: Algorithm 1 reports
// only the top-voted links of a window, so one would mask the other.
var simFaultPlan = []struct {
	kind faultKind
	at   float64
}{
	{faultRNICDown, 1}, {faultLinkDrop, 5}, {faultHostDown, 9},
	{faultPFC, 23}, {faultLinkFlap, 41},
}

type simRun struct {
	s      *simStack
	tr     *tracer
	chk    *checker
	faults []*plantedFault
	events int

	publishNS []int64
}

// window runs one 20 s analysis window: the body, then the window-close
// event on its own so that drain + Tick + Observe + publish + delivery
// can be timed from outside. It returns the records the window analysed.
func (sr *simRun) window(g int) int {
	sr.tr.setWindow(g)
	id := sr.tr.begin(spanWindow)
	sr.tr.sync(spanCoreRun, 0, func() { sr.s.run(windowLen - closeEps) })

	before := len(sr.s.reports)
	t0 := nowNS()
	sr.s.closeWindow(closeEps)
	pid := sr.tr.begin(spanDeliver)
	ev, ok := sr.s.popWindow()
	sr.tr.end(pid, 1)
	sr.publishNS = append(sr.publishNS, nowNS()-t0)

	records := 0
	if len(sr.s.reports) == before+1 {
		rep := sr.s.reports[before]
		records = int(rep.Cluster.Probes + rep.Service.Probes)
		sr.chk.windowEvent(g, rep, ev, ok)
	} else {
		sr.chk.op(false, "window %d: %d reports closed, want 1", g, len(sr.s.reports)-before)
	}
	sr.events += sr.chk.drainIncidents(sr.s.popIncident, sr.s.tp, sr.faults)
	sr.tr.end(id, records)
	return records
}

// plant schedules one fault's injection and clearing on the cluster's
// own clock.
func (sr *simRun) plant(f *plantedFault, at vtime) {
	sr.faults = append(sr.faults, f)
	sr.s.at(at, func() {
		if err := sr.s.inject(f); err != nil {
			sr.chk.op(false, "inject %v: %v", f.Kind, err)
		}
	})
	sr.s.at(at+faultLifetime*vsecond, func() {
		if f.active != nil {
			sr.s.clear(f)
		}
	})
}

func runSim(p simParams, cfg runConfig) (*result, error) {
	res := newResult(cfg)
	size := clos256
	if cfg.tiny {
		size = clos16
	}
	if err := measureSim(p, size, cfg, res); err != nil {
		return nil, err
	}
	return res, repeatSetups(cfg, res, func() (func(), error) {
		s, err := newSimStack(size, cfg.seed, nil)
		if err != nil {
			return nil, err
		}
		return s.close, nil
	})
}

// measureSim sets the cluster up once, runs the workload on it and tears
// it down.
func measureSim(p simParams, size closSize, cfg runConfig, res *result) error {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	s, err := newSimStack(size, cfg.seed, tr)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer s.close()
	res.e2e["setup_s"] = float64(nowNS()) / 1e9
	sr := &simRun{s: s, tr: tr, chk: res.chk}

	// Warm-up: the agents register and start probing in the first window;
	// the job (if any) connects once they have; the second window's
	// uploads are kept for the wire probe.
	windows := cfg.windows(0)
	sr.publishNS = make([]int64, 0, simWarmupWindows+windows+2)
	picker := newFaultPicker(s.tp, 1)
	avoid := map[string]bool{}
	sr.window(0)
	if p.faults {
		hosts, err := s.startJob(cfg.seed)
		if err != nil {
			return fmt.Errorf("service job: %w", err)
		}
		for _, h := range hosts {
			avoid[h] = true
		}
	}
	kept := s.keepUploads()
	sr.window(1)
	kept.stop()
	sr.publishNS = sr.publishNS[:0]

	r := newRNG(uint64(cfg.seed))
	timedStart := s.now()
	if p.faults {
		plan := simFaultPlan
		if cfg.tiny {
			plan = plan[:2] // sixteen hosts cannot hold five faults apart
		}
		for _, fp := range plan {
			at := timedStart + vtime((fp.at+float64(r.intn(faultJitterMS))/1000)*float64(vsecond))
			sr.plant(picker.pick(fp.kind, r, avoid), at)
		}
	}

	collect()
	sec := newSection(tr, tracedFrom(cfg))
	k0 := s.counters()
	for w := 0; w < windows; w++ {
		sec.beginSegment(w)
		records := sr.window(simWarmupWindows + w)
		sec.endSegment(records, vsecs(windowLen))
	}
	sec.finish()
	k1 := s.counters()
	res.e2e["peak_rss_mb"] = peakRSSMB()
	timedEnd := s.now()

	// detect_virtual_s on the healthy workload: one fault planted after the
	// timed section, read off the incident stream like any other.
	if !p.faults {
		at := s.now() + vtime((1+float64(r.intn(faultJitterMS))/1000)*float64(vsecond))
		sr.plant(picker.pick(faultRNICDown, r, avoid), at)
		sr.window(simWarmupWindows + windows)
		timedEnd = s.now() + windowLen // judge the probe fault too
	}

	sec.fill(res)
	res.e2e["window_publish_ms"] = nsQuantile(sr.publishNS[:windows], 0.5, 1e6)
	res.samples["window_publish_ms"] = windows
	res.layer["tail.window_publish_p90_ms"] = nsQuantile(sr.publishNS[:windows], 0.9, 1e6)
	res.e2e["detect_virtual_s"] = meanDetect(sr.faults)
	res.faults = sr.faults

	// wire_bytes_per_record by the live definition: the warm-up window's
	// uploads shipped over a loopback wire connection into a null sink.
	bytes, records, errs, err := wireProbe(kept.batches)
	if err != nil {
		return fmt.Errorf("wire probe: %w", err)
	}
	res.chk.ops(len(kept.batches), errs, "wire-probe uploads with Client.Err")
	res.e2e["wire_bytes_per_record"] = float64(bytes) / float64(records)

	snap := s.snapshot()
	res.chk.simAccounting(sr, snap)
	res.chk.faultsDetected(sr.faults, timedEnd)
	res.chk.reportsExplained(s.tp, s.reports, sr.faults)
	if p.faults && windows >= 8 {
		res.chk.op(snap.open == 0, "%d incidents still open after every fault cleared and three clean windows", snap.open)
	}
	res.fingerprint = fingerprint(s.reports)

	rd := newReader(s.httpAddr(), s.hostNames(), cfg.seed, simHistoryStart, nil, tr)
	rd.run(cfg.queryProbes())
	rd.fill(res)

	if cfg.trace {
		sr.fillLayers(res, sec, snap.accounting, k0, k1)
	}
	return nil
}

// fillLayers reduces the traced section to the per-layer list. The
// layer counts cover the whole timed section (they are cumulative
// counters of the layers themselves, untouched by tracing).
func (sr *simRun) fillLayers(res *result, sec *section, acct accounting, k0, k1 simCounters) {
	red := sr.tr.reduce()
	L := res.layer
	vs := sec.vsecs
	windows := float64(red[spanWindow].count)

	L["core.run_ms_per_window"] = red[spanCoreRun].medianNS() / 1e6
	L["sim.events_per_vsec"] = float64(k1.events-k0.events) / vs
	if ev := float64(k1.events - k0.events); ev > 0 {
		L["sim.ns_per_event"] = float64(sec.wallNS) / ev
	}
	L["simnet.packets_per_vsec"] = float64(k1.packets-k0.packets) / vs
	L["simnet.drops_per_vsec"] = float64(k1.drops-k0.drops) / vs
	L["agent.probes_per_vsec"] = float64(k1.probes-k0.probes) / vs
	L["agent.timeouts_per_vsec"] = float64(k1.timeouts-k0.timeouts) / vs
	L["agent.uploads_per_vsec"] = float64(k1.uploads-k0.uploads) / vs
	L["agent.traces_per_vsec"] = float64(k1.traces-k0.traces) / vs

	// core.Cluster closes a window in one engine event — DrainAll, Tick,
	// Observe, then the hooks — so from outside the step up to the OnWindow
	// hook is the analyzer's figure here; alert.observe_us is inside it.
	L["analyzer.tick_ms"] = red[spanCoreClose].medianNS() / 1e6
	L["analyzer.tick_p90_ms"] = red[spanCoreClose].p90NS() / 1e6
	if windows > 0 {
		L["analyzer.records_per_window"] = float64(sec.tracedRecords) / windows
	}
	L["analyzer.problems_per_window"] = problemsPerWindow(sr.s.reports)
	L["tsdb.append_ns_per_point"] = red[spanTSDBAppend].perUnitNS()
	L["tsdb.bytes_mb"] = acct.tsdbMB()
	rangeNS, quantNS := sr.s.storeProbe()
	L["tsdb.range_us"] = nsQuantile(rangeNS, 0.5, 1e3)
	L["tsdb.quantile_us"] = nsQuantile(quantNS, 0.5, 1e3)
	if n := len(sr.s.reports); n > 0 {
		L["alert.events_per_window"] = float64(sr.events) / float64(n)
	}
	L["api.publish_us"] = red[spanPublish].medianNS() / 1e3
	L["api.deliver_us"] = red[spanDeliver].medianNS() / 1e3
	shed, evicted := acct.hubLoss()
	L["api.hub_shed"] = float64(shed)
	L["api.hub_evicted"] = float64(evicted)

	lines, unaccounted := budgetTable(&red)
	res.budget = lines
	L["budget.unaccounted_pct"] = unaccounted
	if path := res.cfg.spans; path != "" {
		if err := sr.tr.writeSpans(path); err != nil {
			res.chk.op(false, "write spans: %v", err)
		}
	}
}
