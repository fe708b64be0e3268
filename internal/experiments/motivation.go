package experiments

import (
	"rpingmesh/internal/core"
	"rpingmesh/internal/faultgen"
	"rpingmesh/internal/metrics"
	"rpingmesh/internal/proto"
	"rpingmesh/internal/service"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

func init() {
	register("fig1", "Single flapping switch port / RNIC collapses DML training throughput", runFig1)
	register("fig2", "Software-layer P99 RTT tracks host load; CQE-based RTT does not", runFig2)
}

// runFig1 reproduces Figure 1: a DML job trains steadily, then a single
// flapping switch port (top panel) and later a single flapping RNIC
// (bottom panel) each collapse the cluster-wide training throughput.
func runFig1(seed int64) *Report {
	rep := newReport("fig1", "Flapping switch port / RNIC vs training throughput")
	c := newStdCluster(seed)
	job, err := c.NewJob(service.Config{
		Pattern:         service.AllReduce,
		ComputeTime:     sim.Second,
		VolumePerFlowGB: 10,
		StallFailAfter:  sim.Hour, // keep the job alive through the flaps
		Seed:            seed,
	})
	if err != nil {
		panic(err)
	}
	c.Run(10 * sim.Second)
	if err := job.Start(); err != nil {
		panic(err)
	}

	// Pick a fabric link actually used by the service, and a
	// participating RNIC.
	var fabricLink topo.LinkID = -1
	for _, path := range job.FlowPaths() {
		for _, l := range path {
			_, fromSwitch := c.Topo.Switches[c.Topo.Links[l].From]
			_, toSwitch := c.Topo.Switches[c.Topo.Links[l].To]
			if fromSwitch && toSwitch {
				fabricLink = l
				break
			}
		}
		if fabricLink >= 0 {
			break
		}
	}
	victimRNIC := c.Topo.RNICsUnderToR("tor-0-0")[0]

	in := faultgen.NewInjector(c, seed)
	phase := func(name string, from, to sim.Time, fault *faultgen.Fault) float64 {
		var af *faultgen.ActiveFault
		if fault != nil {
			var err error
			af, err = in.Inject(*fault)
			if err != nil {
				panic(err)
			}
		}
		c.Run(to - from)
		if af != nil {
			in.Clear(af)
		}
		mean := job.Throughput.MeanOver(from.Seconds(), to.Seconds())
		rep.addf("%-28s mean training throughput %8.1f Gbps", name, mean)
		return mean
	}

	t := c.Eng.Now()
	base := phase("baseline", t, t+60*sim.Second, nil)
	t = c.Eng.Now()
	port := phase("switch-port flapping", t, t+60*sim.Second, &faultgen.Fault{Cause: faultgen.FlappingPort, Link: fabricLink})
	t = c.Eng.Now()
	heal1 := phase("healed", t, t+40*sim.Second, nil)
	t = c.Eng.Now()
	nic := phase("RNIC flapping", t, t+60*sim.Second, &faultgen.Fault{Cause: faultgen.FlappingPort, Dev: victimRNIC})
	t = c.Eng.Now()
	heal2 := phase("healed again", t, t+40*sim.Second, nil)

	rep.addf("throughput over time: %s", job.Throughput.Sparkline(64))
	rep.addf("                      (baseline | port flap | heal | RNIC flap | heal)")

	rep.metric("baseline_gbps", base)
	rep.metric("port_flap_gbps", port)
	rep.metric("rnic_flap_gbps", nic)
	rep.metric("healed_gbps", (heal1+heal2)/2)
	rep.metric("port_flap_degradation", 1-port/base)
	rep.metric("rnic_flap_degradation", 1-nic/base)
	return rep
}

// runFig2 reproduces Figure 2: Pingmesh-style software RTT (measured at
// the application: ⑥-①) swings with host load, while the CQE-based
// network RTT stays flat — the motivation for measuring at the RNIC.
func runFig2(seed int64) *Report {
	rep := newReport("fig2", "Software RTT vs CQE RTT under varying host load")
	var soft, hard *metrics.Distribution
	resetWindow := func() {
		soft = metrics.NewDistribution()
		hard = metrics.NewDistribution()
	}
	resetWindow()

	c := newStdCluster(seed, func(cfg *core.Config) {})
	c.TapRecords(func(b *proto.RecordBatch) {
		for i := 0; i < b.Len(); i++ {
			if b.Timeout(i) {
				continue
			}
			// Software RTT is what an application-layer ping sees: the
			// whole ①→⑥ span.
			soft.Add(float64(b.NetworkRTT(i) + b.ProberDelay(i) + b.ResponderDelay(i)))
			hard.Add(float64(b.NetworkRTT(i)))
		}
	})
	c.Run(20 * sim.Second) // warm-up

	loads := []float64{0.10, 0.50, 0.90, 0.50, 0.10}
	var softP99s, hardP99s []float64
	for _, load := range loads {
		for _, h := range c.Topo.AllHosts() {
			c.Host(h).Host.SetLoad(load)
		}
		resetWindow()
		c.Run(60 * sim.Second)
		sp, hp := soft.P99(), hard.P99()
		softP99s = append(softP99s, sp)
		hardP99s = append(hardP99s, hp)
		rep.addf("load %.2f  P99 software RTT %8.1f µs   P99 network RTT %7.1f µs",
			load, us(sp), us(hp))
	}
	maxSoft, minSoft := softP99s[0], softP99s[0]
	maxHard, minHard := hardP99s[0], hardP99s[0]
	for i := range softP99s {
		maxSoft = max(maxSoft, softP99s[i])
		minSoft = min(minSoft, softP99s[i])
		maxHard = max(maxHard, hardP99s[i])
		minHard = min(minHard, hardP99s[i])
	}
	rep.metric("software_p99_swing", maxSoft/minSoft)
	rep.metric("network_p99_swing", maxHard/minHard)
	rep.metric("software_p99_max_us", us(maxSoft))
	rep.metric("network_p99_max_us", us(maxHard))
	return rep
}
