package analyzer

import (
	"sort"

	"rpingmesh/internal/metrics"
	"rpingmesh/internal/proto"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

// stageClassify seeds the attribution slice: every timeout is
// provisionally a switch problem until an earlier-in-the-cascade cause
// claims it.
func (a *Analyzer) stageClassify(st *windowState) {
	n := st.Recs.Len()
	st.Causes = make([]Cause, n)
	for i := 0; i < n; i++ {
		if st.Recs.Timeout(i) {
			st.Causes[i] = CauseSwitch
		}
	}
}

// stageHostDownFilter is cascade step 1: timeouts toward hosts that
// stopped uploading are host-down, not network problems. The sorted set
// of down hosts is stashed on the state; rnicDetect emits the
// ProblemHostDown entries so they follow the RNIC problems in the
// report, as the pre-pipeline Analyzer ordered them.
func (a *Analyzer) stageHostDownFilter(st *windowState) {
	down := make(map[topo.HostID]bool)
	for i, n := 0, st.Recs.Len(); i < n; i++ {
		if st.Causes[i] != CauseSwitch {
			continue
		}
		dst := st.Recs.RouteAt(i).DstHost
		last, seen := st.LastUpload[dst]
		if !seen || st.Now-last > a.cfg.Window {
			st.Causes[i] = CauseHostDown
			st.Report.HostDownTimeouts++
			down[dst] = true
		}
	}
	st.downHosts = sortedHosts(down)
}

// stageQPNResetFilter is cascade step 2: a timeout whose target QPN no
// longer matches the registry is restart noise (§4.3.1).
func (a *Analyzer) stageQPNResetFilter(st *windowState) {
	for i, n := 0, st.Recs.Len(); i < n; i++ {
		if st.Causes[i] != CauseSwitch {
			continue
		}
		rt := st.Recs.RouteAt(i)
		if qpn, ok := a.qpns.CurrentQPN(rt.DstDev); ok && qpn != rt.DstQPN {
			st.Causes[i] = CauseQPNReset
			st.Report.QPNResetTimeouts++
		}
	}
}

type rnicStat struct{ total, timeout int }

// rnicStats builds the per-destination-RNIC ToR-mesh timeout statistics
// for one detection iteration, sharded over Workers when configured.
// Shards cover disjoint contiguous index ranges of the record columns
// and the integer counts merge commutatively, so the merged map is
// identical to the serial scan for any worker count.
func (a *Analyzer) rnicStats(st *windowState, excluded map[topo.DeviceID]bool) map[topo.DeviceID]*rnicStat {
	w := a.workers()
	locals := make([]map[topo.DeviceID]*rnicStat, w)
	n := st.Recs.Len()
	chunk := (n + w - 1) / w
	runSharded(w, func(wi int) {
		m := make(map[topo.DeviceID]*rnicStat)
		lo := wi * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			rt := st.Recs.RouteAt(i)
			if rt.Kind != proto.ToRMesh {
				continue
			}
			if st.Causes[i] == CauseHostDown || st.Causes[i] == CauseQPNReset {
				continue
			}
			if excluded[rt.SrcDev] || excluded[rt.DstDev] {
				continue
			}
			s, ok := m[rt.DstDev]
			if !ok {
				s = &rnicStat{}
				m[rt.DstDev] = s
			}
			s.total++
			if st.Recs.Timeout(i) {
				s.timeout++
			}
		}
		locals[wi] = m
	})
	merged := locals[0]
	for _, m := range locals[1:] {
		for dev, s := range m {
			if t, ok := merged[dev]; ok {
				t.total += s.total
				t.timeout += s.timeout
			} else {
				merged[dev] = s
			}
		}
	}
	return merged
}

// stageRNICDetect runs the ToR-mesh analysis (§4.3.2): an RNIC with more
// than RNICTimeoutFrac of its inbound ToR-mesh probes timing out is
// anomalous; every remaining timeout touching it (either side) is
// re-attributed to the RNIC and quarantined from switch localization.
//
// Detection is iterative with source exclusion: the worst offender is
// detected first and every probe involving it is withdrawn before other
// RNICs are judged. Otherwise a single down RNIC, whose own outbound
// ToR-mesh probes all time out, would push every ToR neighbour over the
// 10 % threshold ("introduce minimal uncertainty", §4.3.2).
func (a *Analyzer) stageRNICDetect(st *windowState) {
	now, rep := st.Now, st.Report
	excluded := make(map[topo.DeviceID]bool)
	detected := make(map[topo.DeviceID]int) // dev -> timeout evidence

	for !a.DisableRNICDetection {
		stats := a.rnicStats(st, excluded)
		// Pick the single worst offender above the threshold
		// (deterministically: lowest device ID wins ties).
		candidates := make([]topo.DeviceID, 0, len(stats))
		for dev := range stats {
			candidates = append(candidates, dev)
		}
		sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })
		var worst topo.DeviceID
		worstFrac := a.cfg.RNICTimeoutFrac
		worstEvidence := 0
		for _, dev := range candidates {
			s := stats[dev]
			if s.total == 0 {
				continue
			}
			if frac := float64(s.timeout) / float64(s.total); frac > worstFrac {
				worst = dev
				worstFrac = frac
				worstEvidence = s.timeout
			}
		}
		if worst == "" {
			break
		}
		excluded[worst] = true
		detected[worst] = worstEvidence
	}

	devs := make([]topo.DeviceID, 0, len(detected))
	for dev := range detected {
		devs = append(devs, dev)
	}
	sort.Slice(devs, func(i, j int) bool { return devs[i] < devs[j] })
	for _, dev := range devs {
		a.quarantine[dev] = now + a.cfg.RNICQuarantine
		rep.Problems = append(rep.Problems, Problem{
			Kind:     ProblemRNIC,
			Device:   dev,
			Host:     a.devHost(dev),
			Evidence: detected[dev],
			Window:   rep.Index,
		})
	}

	// Re-attribute timeouts touching quarantined RNICs.
	for i, n := 0, st.Recs.Len(); i < n; i++ {
		if st.Causes[i] != CauseSwitch {
			continue
		}
		rt := st.Recs.RouteAt(i)
		if a.isQuarantined(now, rt.SrcDev) || a.isQuarantined(now, rt.DstDev) {
			st.Causes[i] = CauseRNIC
		}
	}

	// Host-down problems (deduplicated per window by hostDownFilter),
	// emitted after the RNIC problems to preserve the report order.
	for _, h := range st.downHosts {
		rep.Problems = append(rep.Problems, Problem{
			Kind:   ProblemHostDown,
			Host:   h,
			Window: rep.Index,
		})
	}
}

// stageCPUNoiseFilter is the post-deployment refinement of §6: probes to
// several RNICs of one host transiently "dropping" at the same time, or a
// host answering with abnormally high responder delay, indicate the
// service occupying the Agent's CPU — not RNIC failures. Matching
// ProblemRNIC reports are withdrawn and their timeouts reclassified.
func (a *Analyzer) stageCPUNoiseFilter(st *windowState) {
	if a.DisableCPUNoiseFilter {
		return
	}
	rep := st.Report
	// Signature B inputs: per-host responder delay vs cluster median.
	delayByHost := make(map[topo.HostID]*metrics.Distribution)
	all := metrics.NewDistribution()
	for i, n := 0, st.Recs.Len(); i < n; i++ {
		if st.Recs.Timeout(i) {
			continue
		}
		respd := float64(st.Recs.ResponderDelay(i))
		dst := st.Recs.RouteAt(i).DstHost
		d, ok := delayByHost[dst]
		if !ok {
			d = metrics.NewDistribution()
			delayByHost[dst] = d
		}
		d.Add(respd)
		all.Add(respd)
	}
	clusterMedian := all.P50()

	// Signature A: count this window's detected-anomalous RNICs per host.
	byHost := make(map[topo.HostID][]int) // host -> indices into rep.Problems
	for i := range rep.Problems {
		if rep.Problems[i].Kind == ProblemRNIC {
			byHost[rep.Problems[i].Host] = append(byHost[rep.Problems[i].Host], i)
		}
	}
	noisy := make(map[topo.HostID]bool)
	for host, idxs := range byHost {
		multiRNIC := len(idxs) >= a.cfg.MinCPUNoiseRNICs
		highDelay := false
		if d, ok := delayByHost[host]; ok && clusterMedian > 0 && d.Count() > 0 {
			highDelay = d.P50() > a.cfg.HighDelayFactor*clusterMedian
		}
		if multiRNIC || highDelay {
			noisy[host] = true
		}
	}
	if len(noisy) == 0 {
		return
	}
	// Withdraw the problems, lift the quarantine, reclassify timeouts.
	kept := rep.Problems[:0]
	for _, p := range rep.Problems {
		if p.Kind == ProblemRNIC && noisy[p.Host] {
			delete(a.quarantine, p.Device)
			continue
		}
		kept = append(kept, p)
	}
	rep.Problems = kept
	for i, n := 0, st.Recs.Len(); i < n; i++ {
		if st.Causes[i] != CauseRNIC && st.Causes[i] != CauseSwitch {
			continue
		}
		if noisy[st.Recs.RouteAt(i).DstHost] {
			st.Causes[i] = CauseCPUNoise
			rep.CPUNoiseTimeouts++
		}
	}
}

func (a *Analyzer) isQuarantined(now sim.Time, dev topo.DeviceID) bool {
	until, ok := a.quarantine[dev]
	return ok && now <= until
}

func (a *Analyzer) devHost(dev topo.DeviceID) topo.HostID {
	if r, ok := a.tp.RNICs[dev]; ok {
		return r.Host
	}
	return ""
}

// stageBottleneckDetect flags performance bottlenecks from the latency
// SLAs (§2.3, Fig 8): per-host end-host processing delay (CPU overload,
// #12) and per-RNIC network RTT inflation (PFC storms from intra-host
// bottlenecks #13/#14, congested links #10/#11), plus the service-level
// tail-RTT signal used in Fig 8 (right).
func (a *Analyzer) stageBottleneckDetect(st *windowState) {
	rep := st.Report
	const minSamples = 20
	delayByHost := make(map[topo.HostID]*metrics.Distribution)
	rttByDev := make(map[topo.DeviceID]*metrics.Distribution)
	for i, n := 0, st.Recs.Len(); i < n; i++ {
		if st.Recs.Timeout(i) {
			continue
		}
		rt := st.Recs.RouteAt(i)
		d, ok := delayByHost[rt.DstHost]
		if !ok {
			d = metrics.NewDistribution()
			delayByHost[rt.DstHost] = d
		}
		d.Add(float64(st.Recs.ResponderDelay(i)))
		rd, ok := rttByDev[rt.DstDev]
		if !ok {
			rd = metrics.NewDistribution()
			rttByDev[rt.DstDev] = rd
		}
		rd.Add(float64(st.Recs.NetworkRTT(i)))
	}

	// Per-host CPU overload: window P50 far above the cluster median.
	if med := rep.Cluster.ResponderDelay.P50; med > 0 {
		hosts := make([]topo.HostID, 0, len(delayByHost))
		for h := range delayByHost {
			hosts = append(hosts, h)
		}
		sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })
		for _, h := range hosts {
			d := delayByHost[h]
			if d.Count() >= minSamples && d.P50() > a.cfg.HighDelayFactor*med {
				rep.Problems = append(rep.Problems, Problem{
					Kind:     ProblemHighProcDelay,
					Host:     h,
					Evidence: int(d.Count()),
					Window:   rep.Index,
				})
			}
		}
	}

	// Per-RNIC RTT inflation: everything toward one RNIC is slow (PFC
	// storm on its downlink) — Fig 8 right's ToR-mesh signal.
	if med := rep.Cluster.RTT.P50; med > 0 {
		devs := make([]topo.DeviceID, 0, len(rttByDev))
		for dev := range rttByDev {
			devs = append(devs, dev)
		}
		sort.Slice(devs, func(i, j int) bool { return devs[i] < devs[j] })
		for _, dev := range devs {
			d := rttByDev[dev]
			if d.Count() >= minSamples && d.P50() > a.cfg.HighRTTFactor*med {
				rep.Problems = append(rep.Problems, Problem{
					Kind:     ProblemHighRTT,
					Device:   dev,
					Host:     a.devHost(dev),
					Evidence: int(d.Count()),
					Window:   rep.Index,
				})
			}
		}
	}

	// Service-level congestion: tail RTT of the service network far above
	// its own learned baseline.
	if a.rttBaselineP99 > 0 && rep.Service.RTT.Count >= minSamples &&
		rep.Service.RTT.P99 > a.cfg.HighRTTFactor*a.rttBaselineP99 {
		rep.Problems = append(rep.Problems, Problem{
			Kind:               ProblemHighRTT,
			FromServiceTracing: true,
			Window:             rep.Index,
		})
	}
	if rep.Service.RTT.Count > 0 {
		p99 := rep.Service.RTT.P99
		if a.rttBaselineP99 == 0 {
			a.rttBaselineP99 = p99
		} else if p99 < a.cfg.HighRTTFactor*a.rttBaselineP99 {
			a.rttBaselineP99 = 0.9*a.rttBaselineP99 + 0.1*p99
		}
	}
}

// stageImpactAssess assigns P0/P1/P2 (§4.3.4) and decides network
// innocence.
func (a *Analyzer) stageImpactAssess(st *windowState) {
	rep := st.Report
	hasP0orP1 := false
	for i := range rep.Problems {
		p := &rep.Problems[i]
		inService := p.FromServiceTracing || a.inServiceNetwork(p)
		switch {
		case p.Kind == ProblemHostDown:
			// Host down is not a network problem; priority by service
			// membership for operator attention.
			if _, ok := a.serviceHosts[p.Host]; ok {
				p.Priority = P0
			} else {
				p.Priority = P2
			}
			continue
		case !inService:
			p.Priority = P2
			continue
		case rep.PerfDegraded:
			p.Priority = P0
		default:
			p.Priority = P1
		}
		hasP0orP1 = true
	}
	if rep.PerfDegraded && !hasP0orP1 {
		rep.NetworkInnocent = true
	}
}

// inServiceNetwork reports whether a cluster-detected problem lies inside
// the current service network (§4.3.4).
func (a *Analyzer) inServiceNetwork(p *Problem) bool {
	switch p.Kind {
	case ProblemSwitchLink:
		candidates := p.Links
		if len(candidates) == 0 {
			candidates = []topo.LinkID{p.Link}
		}
		for _, l := range candidates {
			if _, ok := a.serviceLinks[l]; ok {
				return true
			}
			if int(l) < 0 || int(l) >= len(a.tp.Links) {
				continue
			}
			// Also check the reverse direction of the cable.
			rev := a.tp.LinkBetween(a.tp.Links[l].To, a.tp.Links[l].From)
			if _, ok := a.serviceLinks[rev]; ok {
				return true
			}
		}
		return false
	case ProblemRNIC:
		if _, ok := a.serviceHosts[p.Host]; ok {
			return true
		}
		// The RNIC's host link may carry service traffic.
		if r, ok := a.tp.RNICs[p.Device]; ok {
			up := a.tp.LinkBetween(p.Device, r.ToR)
			down := a.tp.LinkBetween(r.ToR, p.Device)
			if _, ok := a.serviceLinks[up]; ok {
				return true
			}
			if _, ok := a.serviceLinks[down]; ok {
				return true
			}
		}
		return false
	case ProblemHighProcDelay, ProblemHighRTT:
		if p.FromServiceTracing {
			return true
		}
		if p.Host != "" {
			_, ok := a.serviceHosts[p.Host]
			return ok
		}
		return false
	default:
		return false
	}
}
