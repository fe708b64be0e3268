package experiments

import (
	"fmt"

	"rpingmesh/internal/analyzer"
	"rpingmesh/internal/cc"
	"rpingmesh/internal/core"
	"rpingmesh/internal/faultgen"
	"rpingmesh/internal/metrics"
	"rpingmesh/internal/proto"
	"rpingmesh/internal/service"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/simnet"
	"rpingmesh/internal/topo"
)

func init() {
	register("fig8", "Bottlenecks: CPU overload (processing delay) and PFC storm (P99 RTT)", runFig8)
	register("fig9", "Is it a network problem? Throughput down, RTT down, delay stable -> innocent", runFig9)
	register("fig10", "Service-tracing probes capture periodic All2All congestion", runFig10)
	register("fig11", "Tail RTT: AllReduce vs All2All; DCQCN vs improved CC", runFig11)
	register("fig12", "Rail-optimized cluster monitoring and localization", runFig12)
	register("fig13", "Congestion taxonomy: incast downlinks vs hash-collision uplinks", runFig13)
	register("table2", "All 14 root causes detected and categorized", runTable2)
}

// runFig8 reproduces Figure 8: (left) CPU overload on one host shows up
// as high end-host processing delay; (right) a PFC storm from an
// intra-host bottleneck shows up as high P99 network RTT to the victim.
func runFig8(seed int64) *Report {
	rep := newReport("fig8", "CPU overload and PFC storm signatures")
	c := newStdCluster(seed)
	in := faultgen.NewInjector(c, seed)
	c.Run(45 * sim.Second)
	before, _ := c.Analyzer.LastReport()

	// Left panel: overload one host's CPU.
	victim := c.Topo.AllHosts()[0]
	af, err := in.Inject(faultgen.Fault{Cause: faultgen.CPUOverload, Host: victim, Severity: 0.99})
	if err != nil {
		panic(err)
	}
	c.Run(45 * sim.Second)
	during, _ := c.Analyzer.LastReport()
	procDetected := false
	for _, p := range c.Analyzer.Problems() {
		if p.Kind == analyzer.ProblemHighProcDelay && p.Host == victim {
			procDetected = true
		}
	}
	in.Clear(af)
	rep.addf("CPU overload:  cluster P99 proc delay %8.1f µs -> %8.1f µs   flagged host: %v",
		us(before.Cluster.ResponderDelay.P99), us(during.Cluster.ResponderDelay.P99), procDetected)

	// Right panel: PFC storm toward one RNIC.
	c.Run(45 * sim.Second)
	calm, _ := c.Analyzer.LastReport()
	victimDev := c.Topo.AllRNICs()[3]
	af2, err := in.Inject(faultgen.Fault{Cause: faultgen.PCIeDowngraded, Dev: victimDev})
	if err != nil {
		panic(err)
	}
	c.Run(45 * sim.Second)
	storm, _ := c.Analyzer.LastReport()
	rttDetected := false
	for _, p := range c.Analyzer.Problems() {
		if p.Kind == analyzer.ProblemHighRTT && p.Device == victimDev {
			rttDetected = true
		}
	}
	in.Clear(af2)
	rep.addf("PFC storm:     cluster P99 network RTT %8.1f µs -> %8.1f µs   flagged RNIC: %v",
		us(calm.Cluster.RTT.P99), us(storm.Cluster.RTT.P99), rttDetected)

	rep.metric("procdelay_p99_before_us", us(before.Cluster.ResponderDelay.P99))
	rep.metric("procdelay_p99_during_us", us(during.Cluster.ResponderDelay.P99))
	rep.metric("cpu_overload_flagged", b2f(procDetected))
	rep.metric("rtt_p99_before_us", us(calm.Cluster.RTT.P99))
	rep.metric("rtt_p99_storm_us", us(storm.Cluster.RTT.P99))
	rep.metric("pfc_storm_flagged", b2f(rttDetected))
	return rep
}

// runFig9 reproduces Figure 9: the training throughput keeps decreasing
// while the network RTT also decreases and processing delay stays stable
// — proof the network and CPU are innocent (the root cause was a
// training-code bug degrading compute).
func runFig9(seed int64) *Report {
	rep := newReport("fig9", "Throughput down, RTT down, delay stable: network innocent")
	c := newStdCluster(seed, func(cfg *core.Config) { cfg.Net.CC = cc.DCQCN{} })
	job, err := c.NewJob(service.Config{
		Pattern:         service.All2All,
		ComputeTime:     sim.Second,
		DemandGbps:      200,
		VolumePerFlowGB: 4,
		StallFailAfter:  sim.Hour,
		Seed:            seed,
	})
	if err != nil {
		panic(err)
	}
	c.Run(10 * sim.Second)
	if err := job.Start(); err != nil {
		panic(err)
	}
	c.Run(2 * sim.Minute) // healthy baseline

	// The "training-code bug": compute slows 12% more every 30 s.
	factor := 1.0
	c.Eng.Every(time30s, time30s, func() {
		factor *= 1.25
		for _, h := range c.Topo.AllHosts() {
			job.SetComputeFactor(h, factor)
		}
	})
	start := c.Eng.Now()
	c.Run(4 * sim.Minute)

	var first, last analyzer.WindowReport
	innocent := 0
	for _, w := range c.Analyzer.Reports() {
		if w.End <= start || w.Service.RTT.Count == 0 {
			continue
		}
		if first.Service.RTT.Count == 0 {
			first = w
		}
		last = w
		if w.NetworkInnocent {
			innocent++
		}
		rep.addf("t=%5.0fs  thr %6.1f Gbps  svc RTT p50 %6.1f µs  proc delay p50 %5.1f µs  degraded=%v innocent=%v",
			(w.End - start).Seconds(), w.ServicePerf, us(w.Service.RTT.P50), us(w.Cluster.ResponderDelay.P50),
			w.PerfDegraded, w.NetworkInnocent)
	}

	rep.addf("training throughput: %s (steadily decreasing)", job.Throughput.Sparkline(48))

	rep.metric("thr_first_gbps", first.ServicePerf)
	rep.metric("thr_last_gbps", last.ServicePerf)
	rep.metric("rtt_first_us", us(first.Service.RTT.P50))
	rep.metric("rtt_last_us", us(last.Service.RTT.P50))
	rep.metric("procdelay_first_us", us(first.Cluster.ResponderDelay.P50))
	rep.metric("procdelay_last_us", us(last.Cluster.ResponderDelay.P50))
	rep.metric("network_innocent_windows", float64(innocent))
	return rep
}

// runFig10 reproduces Figure 10: service-tracing probes capture the
// periodic All2All traffic — RTT oscillates with the compute/communicate
// cycle.
func runFig10(seed int64) *Report {
	rep := newReport("fig10", "Periodic All2All congestion captured by service probes")
	// Bucketing keys on probe SentAt, a HOST clock reading; clock offsets
	// are disabled for this figure so one-second buckets line up across
	// hosts (presentation only — the measurement itself never needs
	// synchronized clocks).
	c := newStdCluster(seed, func(cfg *core.Config) {
		cfg.Net.CC = cc.DCQCN{}
		cfg.MaxClockOffset = sim.Nanosecond
	})

	const buckets = 90
	sums := make([]float64, buckets)
	counts := make([]float64, buckets)
	var start sim.Time
	c.TapRecords(func(b *proto.RecordBatch) {
		for i := 0; i < b.Len(); i++ {
			if b.RouteAt(i).Kind != proto.ServiceTracing || b.Timeout(i) || start == 0 {
				continue
			}
			idx := int((b.SentAt(i) - start) / sim.Second)
			if idx >= 0 && idx < buckets {
				sums[idx] += float64(b.NetworkRTT(i))
				counts[idx]++
			}
		}
	})

	job, err := c.NewJob(service.Config{
		Pattern:         service.All2All,
		ComputeTime:     2 * sim.Second,
		DemandGbps:      200,
		VolumePerFlowGB: 8,
		StallFailAfter:  sim.Hour,
		Seed:            seed,
	})
	if err != nil {
		panic(err)
	}
	c.Run(10 * sim.Second)
	if err := job.Start(); err != nil {
		panic(err)
	}
	c.Run(20 * sim.Second) // settle
	start = c.Eng.Now()
	c.Run(sim.Time(buckets)*sim.Second + 10*sim.Second)

	var quiet, busy []float64
	for i := 0; i < buckets; i++ {
		if counts[i] == 0 {
			continue
		}
		rtt := sums[i] / counts[i]
		if i < 30 {
			rep.addf("t=%2ds  mean service RTT %7.1f µs", i, us(rtt))
		}
		if rtt < 2*float64(5*sim.Microsecond) {
			quiet = append(quiet, rtt)
		} else {
			busy = append(busy, rtt)
		}
	}
	rep.addf("(first 30 of %d one-second buckets shown)", buckets)
	rep.metric("quiet_buckets", float64(len(quiet)))
	rep.metric("busy_buckets", float64(len(busy)))
	rep.metric("quiet_mean_us", us(mean(quiet)))
	rep.metric("busy_mean_us", us(mean(busy)))
	if len(quiet) > 0 && len(busy) > 0 {
		rep.metric("busy_quiet_ratio", mean(busy)/mean(quiet))
	}
	return rep
}

// runFig11 reproduces Figure 11: (left) All2All congests far more than
// AllReduce, visible in tail RTT; (right) the improved CC cuts tail RTT
// versus DCQCN while keeping throughput.
func runFig11(seed int64) *Report {
	rep := newReport("fig11", "Tail RTT by communication mode and CC algorithm")
	run := func(pattern service.Pattern, ccImpl simnet.CongestionControl) (p50, p99, p999, thr float64) {
		c := newStdCluster(seed, func(cfg *core.Config) { cfg.Net.CC = ccImpl })
		rtt := metrics.NewDistribution()
		c.TapRecords(func(b *proto.RecordBatch) {
			for i := 0; i < b.Len(); i++ {
				if b.RouteAt(i).Kind == proto.ServiceTracing && !b.Timeout(i) {
					rtt.Add(float64(b.NetworkRTT(i)))
				}
			}
		})
		job, err := c.NewJob(service.Config{
			Pattern:         pattern,
			ComputeTime:     sim.Second,
			DemandGbps:      200,
			VolumePerFlowGB: 6,
			StallFailAfter:  sim.Hour,
			Seed:            seed,
		})
		if err != nil {
			panic(err)
		}
		c.Run(10 * sim.Second)
		if err := job.Start(); err != nil {
			panic(err)
		}
		c.Run(3 * sim.Minute)
		return rtt.P50(), rtt.P99(), rtt.P999(), job.Throughput.MeanOver(20, c.Eng.Now().Seconds())
	}

	arP50, arP99, arP999, arThr := run(service.AllReduce, cc.DCQCN{})
	aaP50, aaP99, aaP999, aaThr := run(service.All2All, cc.DCQCN{})
	imP50, imP99, imP999, imThr := run(service.All2All, cc.Improved{})

	rep.addf("AllReduce + DCQCN   RTT p50 %6.1f  p99 %7.1f  p999 %7.1f µs   thr %7.1f Gbps", us(arP50), us(arP99), us(arP999), arThr)
	rep.addf("All2All   + DCQCN   RTT p50 %6.1f  p99 %7.1f  p999 %7.1f µs   thr %7.1f Gbps", us(aaP50), us(aaP99), us(aaP999), aaThr)
	rep.addf("All2All   + improved RTT p50 %6.1f  p99 %7.1f  p999 %7.1f µs   thr %7.1f Gbps", us(imP50), us(imP99), us(imP999), imThr)

	rep.metric("allreduce_p99_us", us(arP99))
	rep.metric("all2all_p99_us", us(aaP99))
	rep.metric("all2all_improved_p99_us", us(imP99))
	rep.metric("all2all_vs_allreduce_p99", aaP99/max(arP99, 1))
	rep.metric("improved_vs_dcqcn_p99", imP99/max(aaP99, 1))
	rep.metric("dcqcn_thr_gbps", aaThr)
	rep.metric("improved_thr_gbps", imThr)
	return rep
}

// runFig12 exercises the rail-optimized deployment of §7.4 / Fig 12:
// inter-rail probes between a host's own NICs traverse the spine tier and
// cover the fabric; an injected spine-link fault is localized.
func runFig12(seed int64) *Report {
	rep := newReport("fig12", "Rail-optimized cluster monitoring")
	tp, err := topo.BuildRailOptimized(topo.RailConfig{Hosts: 8, Rails: 4, Spines: 4})
	if err != nil {
		panic(err)
	}
	c, err := core.NewCluster(core.Config{Topology: tp, Seed: seed})
	if err != nil {
		panic(err)
	}
	c.StartAgents()
	c.Run(45 * sim.Second)
	rep0, _ := c.Analyzer.LastReport()
	rep.addf("healthy rail cluster: %d probes/window, RTT p50 %.1f µs",
		rep0.Cluster.Probes, us(rep0.Cluster.RTT.P50))

	victim := tp.LinkBetween("rail-0", "spine-1")
	c.Net.SetLinkDown(victim, true)
	c.Run(60 * sim.Second)
	cable := tp.Links[victim].Cable
	located := false
	for _, p := range c.Analyzer.Problems() {
		if p.Kind != analyzer.ProblemSwitchLink {
			continue
		}
		for _, l := range p.Links {
			if tp.Links[l].Cable == cable {
				located = true
			}
		}
	}
	rep.addf("rail->spine link fault localized: %v", located)
	rep.metric("healthy_probes_per_window", float64(rep0.Cluster.Probes))
	rep.metric("rail_fault_localized", b2f(located))
	rep.metric("rtt_p50_us", us(rep0.Cluster.RTT.P50))
	return rep
}

// runFig13 reproduces Figure 13's taxonomy: many-to-one incast congests
// ToR DOWNLINKS; ECMP hash collisions congest ToR UPLINKS. R-Pingmesh
// tells them apart because probe RTT inflates on the congested link type.
func runFig13(seed int64) *Report {
	rep := newReport("fig13", "Incast (downlink) vs hash collision (uplink)")

	classify := func(c *core.Cluster) (downQ, upQ float64) {
		for _, l := range c.Topo.Links {
			q := c.Net.QueueBytesOn(l.ID)
			if q <= 0 {
				continue
			}
			_, fromSwitch := c.Topo.Switches[l.From]
			if _, toRNIC := c.Topo.RNICs[l.To]; fromSwitch && toRNIC {
				downQ += q
				continue
			}
			if swFrom, ok := c.Topo.Switches[l.From]; ok && swFrom.Tier == topo.TierToR {
				if _, ok := c.Topo.Switches[l.To]; ok {
					upQ += q
				}
			}
		}
		return downQ, upQ
	}

	// Scenario A: many-to-one incast onto one host RNIC.
	cA := newStdCluster(seed)
	inA := faultgen.NewInjector(cA, seed)
	dst := cA.Topo.RNICsUnderToR("tor-0-1")[0]
	downlink := cA.Topo.LinkBetween(cA.Topo.RNICs[dst].ToR, dst)
	if _, err := inA.Inject(faultgen.Fault{Cause: faultgen.ServiceInterference, Link: downlink, Severity: 4}); err != nil {
		panic(err)
	}
	cA.Run(45 * sim.Second)
	downA, upA := classify(cA)
	flaggedA := highRTTDevices(cA)

	// Scenario B: hash collisions piling onto one ToR uplink.
	cB := newStdCluster(seed + 1)
	inB := faultgen.NewInjector(cB, seed+1)
	uplink := cB.Topo.LinkBetween("tor-0-0", "agg-0-0")
	if _, err := inB.Inject(faultgen.Fault{Cause: faultgen.UnevenLoadBalance, Link: uplink, Severity: 4}); err != nil {
		panic(err)
	}
	cB.Run(45 * sim.Second)
	downB, upB := classify(cB)
	flaggedB := highRTTDevices(cB)

	rep.addf("incast:         downlink queue %8.0f B   uplink queue %8.0f B   high-RTT RNICs flagged: %d", downA, upA, flaggedA)
	rep.addf("hash collision: downlink queue %8.0f B   uplink queue %8.0f B   high-RTT RNICs flagged: %d", downB, upB, flaggedB)
	rep.metric("incast_downlink_bytes", downA)
	rep.metric("incast_uplink_bytes", upA)
	rep.metric("collision_downlink_bytes", downB)
	rep.metric("collision_uplink_bytes", upB)
	rep.metric("incast_flagged_rnics", float64(flaggedA))
	rep.metric("collision_flagged_rnics", float64(flaggedB))
	return rep
}

func highRTTDevices(c *core.Cluster) int {
	devs := map[topo.DeviceID]bool{}
	for _, p := range c.Analyzer.Problems() {
		if p.Kind == analyzer.ProblemHighRTT && p.Device != "" {
			devs[p.Device] = true
		}
	}
	return len(devs)
}

// runTable2 injects each of the paper's 14 root causes in isolation and
// verifies R-Pingmesh detects and categorizes it.
func runTable2(seed int64) *Report {
	rep := newReport("table2", "All 14 root causes")
	detected := 0
	for cause := faultgen.FlappingPort; cause <= faultgen.PCIeMisconfig; cause++ {
		ok, signal := detectCause(seed, cause)
		if ok {
			detected++
		}
		rep.addf("#%-2d %-24s [%s]  detected=%-5v  signal: %s",
			int(cause), cause, faultgen.CategoryOf(cause), ok, signal)
		rep.metric(fmt.Sprintf("detected_%02d", int(cause)), b2f(ok))
	}
	rep.addf("detected %d/14 root causes", detected)
	rep.metric("detected_causes", float64(detected))
	return rep
}

// detectCause runs a fresh cluster, injects one cause, and reports
// whether the expected analyzer signal appeared.
func detectCause(seed int64, cause faultgen.Cause) (bool, string) {
	c := newStdCluster(seed + int64(cause))
	in := faultgen.NewInjector(c, seed)
	c.Run(45 * sim.Second)

	f := faultgen.Fault{Cause: cause}
	victimDev := c.Topo.RNICsUnderToR("tor-0-0")[0]
	victimHost := c.Topo.RNICs[victimDev].Host
	fabricLink := c.Topo.LinkBetween("tor-0-0", "agg-0-0")
	switch cause {
	case faultgen.FlappingPort, faultgen.PacketCorruption, faultgen.RNICDown,
		faultgen.MissingRouteConfig, faultgen.GIDIndexMissing, faultgen.ACLError,
		faultgen.PCIeDowngraded, faultgen.PCIeMisconfig:
		f.Dev = victimDev
	case faultgen.HostDown, faultgen.CPUOverload:
		f.Host = victimHost
	case faultgen.PFCDeadlock, faultgen.PFCHeadroomMisconfig,
		faultgen.UnevenLoadBalance, faultgen.ServiceInterference:
		f.Link = fabricLink
	}
	if cause == faultgen.CPUOverload {
		f.Severity = 0.99
	}
	if _, err := in.Inject(f); err != nil {
		return false, "inject failed: " + err.Error()
	}
	if cause == faultgen.PFCHeadroomMisconfig {
		// Headroom misconfig only bites under heavy congestion: add it.
		if _, err := in.Inject(faultgen.Fault{Cause: faultgen.UnevenLoadBalance, Link: fabricLink, Severity: 4}); err != nil {
			return false, "congestion inject failed"
		}
	}
	c.Run(75 * sim.Second)

	cableOf := func(l topo.LinkID) int { return c.Topo.Links[l].Cable }
	fabricCable := cableOf(fabricLink)
	for _, p := range c.Analyzer.Problems() {
		switch cause {
		case faultgen.FlappingPort, faultgen.PacketCorruption, faultgen.RNICDown,
			faultgen.MissingRouteConfig, faultgen.GIDIndexMissing, faultgen.ACLError:
			if p.Kind == analyzer.ProblemRNIC && p.Device == victimDev {
				return true, "RNIC problem at " + string(victimDev)
			}
		case faultgen.HostDown:
			if p.Kind == analyzer.ProblemHostDown && p.Host == victimHost {
				return true, "host down: " + string(victimHost)
			}
		case faultgen.PFCDeadlock, faultgen.PFCHeadroomMisconfig:
			if p.Kind == analyzer.ProblemSwitchLink {
				for _, l := range p.Links {
					if cableOf(l) == fabricCable {
						return true, "switch link localized (timeout voting)"
					}
				}
			}
		case faultgen.UnevenLoadBalance, faultgen.ServiceInterference:
			if p.Kind == analyzer.ProblemHighRTT {
				return true, "congestion: high RTT flagged"
			}
		case faultgen.CPUOverload:
			if p.Kind == analyzer.ProblemHighProcDelay && p.Host == victimHost {
				return true, "high processing delay at " + string(victimHost)
			}
		case faultgen.PCIeDowngraded, faultgen.PCIeMisconfig:
			if p.Kind == analyzer.ProblemHighRTT && p.Device == victimDev {
				return true, "PFC storm: high RTT to " + string(victimDev)
			}
		}
	}
	return false, "no matching signal"
}
