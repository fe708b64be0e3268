package experiments

import (
	"rpingmesh/internal/analyzer"
	"rpingmesh/internal/core"
	"rpingmesh/internal/faultgen"
	"rpingmesh/internal/proto"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

func init() {
	register("ablation-tormesh", "Ablation: ToR-mesh RNIC detection on vs off during a mixed fault", runAblationToRMesh)
	register("ablation-pathtracing", "Ablation: continuous vs on-demand path tracing", runAblationPathTracing)
	register("ablation-aggregation", "Ablation: hierarchical aggregation misleads sparse service networks", runAblationAggregation)
	register("ablation-cpufilter", "Ablation: CPU-overload noise filter on vs off", runAblationCPUFilter)
}

// runAblationToRMesh reproduces the §4.3.2 argument: with a flapping RNIC
// and a corrupting fabric link active at once, disabling the ToR-mesh
// RNIC analysis lets RNIC-caused timeouts contaminate the switch voting.
func runAblationToRMesh(seed int64) *Report {
	rep := newReport("ablation-tormesh", "ToR-mesh detection vs switch localization purity")
	run := func(disable bool) (cleanCandidates bool, rnicProblems int) {
		c := newStdCluster(seed)
		c.Analyzer.DisableRNICDetection = disable
		in := faultgen.NewInjector(c, seed)
		c.Run(45 * sim.Second)
		// Concurrent faults: one flapping RNIC + one corrupting fabric link.
		victimDev := c.Topo.RNICsUnderToR("tor-0-0")[0]
		victimLink := c.Topo.LinkBetween("tor-1-0", "agg-1-0")
		if _, err := in.Inject(faultgen.Fault{Cause: faultgen.FlappingPort, Dev: victimDev}); err != nil {
			panic(err)
		}
		if _, err := in.Inject(faultgen.Fault{Cause: faultgen.PacketCorruption, Link: victimLink, Severity: 0.2}); err != nil {
			panic(err)
		}
		c.Run(90 * sim.Second)

		trueCable := c.Topo.Links[victimLink].Cable
		hostCable := c.Topo.Links[c.Topo.LinkBetween(victimDev, c.Topo.RNICs[victimDev].ToR)].Cable
		cleanCandidates = true
		sawSwitch := false
		for _, p := range c.Analyzer.Problems() {
			switch p.Kind {
			case analyzer.ProblemRNIC:
				rnicProblems++
			case analyzer.ProblemSwitchLink:
				sawSwitch = true
				for _, l := range p.Links {
					cb := c.Topo.Links[l].Cable
					if cb != trueCable {
						cleanCandidates = false
					}
					if cb == hostCable {
						cleanCandidates = false // contaminated by the RNIC fault
					}
				}
			}
		}
		return cleanCandidates && sawSwitch, rnicProblems
	}

	cleanOn, rnicOn := run(false)
	cleanOff, rnicOff := run(true)
	rep.addf("ToR-mesh ON:  switch candidates pure=%v, RNIC problems reported=%d", cleanOn, rnicOn)
	rep.addf("ToR-mesh OFF: switch candidates pure=%v, RNIC problems reported=%d", cleanOff, rnicOff)
	rep.metric("with_tormesh_pure", b2f(cleanOn))
	rep.metric("without_tormesh_pure", b2f(cleanOff))
	rep.metric("with_tormesh_rnic_problems", float64(rnicOn))
	rep.metric("without_tormesh_rnic_problems", float64(rnicOff))
	return rep
}

// runAblationPathTracing reproduces the §4.2.3 design choice: tracing
// paths only after a timeout cannot localize a persistent failure — the
// trace dies at the broken hop.
func runAblationPathTracing(seed int64) *Report {
	rep := newReport("ablation-pathtracing", "Continuous vs on-demand path tracing")
	run := func(onDemand bool) bool {
		c := newStdCluster(seed, func(cfg *core.Config) {
			cfg.Agent.OnDemandTracing = onDemand
		})
		c.Run(45 * sim.Second)
		victim := c.Topo.LinkBetween("tor-0-0", "agg-0-0")
		c.Net.SetLinkDown(victim, true)
		c.Run(60 * sim.Second)
		cable := c.Topo.Links[victim].Cable
		for _, p := range c.Analyzer.Problems() {
			if p.Kind != analyzer.ProblemSwitchLink {
				continue
			}
			for _, l := range p.Links {
				if c.Topo.Links[l].Cable == cable {
					return true
				}
			}
		}
		return false
	}
	cont := run(false)
	demand := run(true)
	rep.addf("continuous tracing: link-down localized = %v", cont)
	rep.addf("on-demand tracing:  link-down localized = %v", demand)
	rep.metric("continuous_localized", b2f(cont))
	rep.metric("ondemand_localized", b2f(demand))
	return rep
}

// runAblationAggregation reproduces §7.4's warning: with only two service
// servers under a ToR, one failed server makes the ToR-level aggregate
// drop rate 50% — misleading — while per-server aggregation pinpoints it.
func runAblationAggregation(seed int64) *Report {
	rep := newReport("ablation-aggregation", "Hierarchical vs per-server service aggregation")
	c := newStdCluster(seed)

	// Tap service results and aggregate both ways.
	type agg struct{ total, timeout int }
	byToR := map[topo.DeviceID]*agg{}
	byHost := map[topo.HostID]*agg{}
	c.TapRecords(func(b *proto.RecordBatch) {
		for i := 0; i < b.Len(); i++ {
			r := b.RouteAt(i)
			if r.Kind != proto.ServiceTracing {
				continue
			}
			tor := c.Topo.RNICs[r.DstDev].ToR
			a1, ok := byToR[tor]
			if !ok {
				a1 = &agg{}
				byToR[tor] = a1
			}
			a2, ok := byHost[r.DstHost]
			if !ok {
				a2 = &agg{}
				byHost[r.DstHost] = a2
			}
			a1.total++
			a2.total++
			if b.Timeout(i) {
				a1.timeout++
				a2.timeout++
			}
		}
	})

	// Service on exactly the two hosts of tor-0-0 plus two remote hosts.
	h00 := c.Topo.RNICs[c.Topo.RNICsUnderToR("tor-0-0")[0]].Host
	h01 := c.Topo.RNICs[c.Topo.RNICsUnderToR("tor-0-0")[3]].Host
	h10 := c.Topo.RNICs[c.Topo.RNICsUnderToR("tor-1-0")[0]].Host
	h11 := c.Topo.RNICs[c.Topo.RNICsUnderToR("tor-1-0")[3]].Host
	job, err := c.NewJob(serviceAll2All(seed), h00, h01, h10, h11)
	if err != nil {
		panic(err)
	}
	c.Run(10 * sim.Second)
	if err := job.Start(); err != nil {
		panic(err)
	}
	c.Run(30 * sim.Second)

	// One of the two tor-0-0 servers' RNICs dies.
	in := faultgen.NewInjector(c, seed)
	for _, dev := range c.Topo.Hosts[h00].RNICs {
		if _, err := in.Inject(faultgen.Fault{Cause: faultgen.RNICDown, Dev: dev}); err != nil {
			panic(err)
		}
	}
	byToR = map[topo.DeviceID]*agg{}
	byHost = map[topo.HostID]*agg{}
	c.Run(60 * sim.Second)

	torAgg := byToR["tor-0-0"]
	torRate := 0.0
	if torAgg != nil && torAgg.total > 0 {
		torRate = float64(torAgg.timeout) / float64(torAgg.total)
	}
	deadRate, aliveRate := 0.0, 0.0
	if a := byHost[h00]; a != nil && a.total > 0 {
		deadRate = float64(a.timeout) / float64(a.total)
	}
	if a := byHost[h01]; a != nil && a.total > 0 {
		aliveRate = float64(a.timeout) / float64(a.total)
	}
	rep.addf("ToR-level service drop rate for tor-0-0: %.0f%%  (misleading: the switch is fine)", torRate*100)
	rep.addf("per-server: %s -> %.0f%%   %s -> %.0f%%  (pinpoints the failed server)", h00, deadRate*100, h01, aliveRate*100)
	rep.metric("tor_aggregate_drop_pct", torRate*100)
	rep.metric("dead_server_drop_pct", deadRate*100)
	rep.metric("alive_server_drop_pct", aliveRate*100)
	return rep
}

// runAblationCPUFilter isolates the §6 false-positive fix.
func runAblationCPUFilter(seed int64) *Report {
	rep := newReport("ablation-cpufilter", "CPU-overload noise filter")
	run := func(disable bool) (falseRNIC int, noise int) {
		c := newStdCluster(seed)
		c.Analyzer.DisableCPUNoiseFilter = disable
		c.Run(45 * sim.Second)
		victim := c.Topo.AllHosts()[0]
		c.Agent(victim).SetStarved(true)
		c.Run(60 * sim.Second)
		for _, p := range c.Analyzer.Problems() {
			if p.Kind == analyzer.ProblemRNIC {
				falseRNIC++
			}
		}
		for _, w := range c.Analyzer.Reports() {
			noise += w.CPUNoiseTimeouts
		}
		return falseRNIC, noise
	}
	fOn, nOn := run(false)
	fOff, nOff := run(true)
	rep.addf("filter ON:  false RNIC problems %d, timeouts classified as noise %d", fOn, nOn)
	rep.addf("filter OFF: false RNIC problems %d, timeouts classified as noise %d", fOff, nOff)
	rep.metric("filter_on_false_rnic", float64(fOn))
	rep.metric("filter_off_false_rnic", float64(fOff))
	rep.metric("filter_on_noise", float64(nOn))
	return rep
}
