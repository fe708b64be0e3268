package core

import (
	"testing"

	"rpingmesh/internal/analyzer"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

func smallCluster(t testing.TB, seed int64) *Cluster {
	t.Helper()
	tp, err := topo.BuildClos(topo.ClosConfig{
		Pods: 2, ToRsPerPod: 2, AggsPerPod: 2, Spines: 2,
		HostsPerToR: 2, RNICsPerHost: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(Config{Topology: tp, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClusterRequiresTopology(t *testing.T) {
	if _, err := NewCluster(Config{}); err == nil {
		t.Fatal("NewCluster without topology succeeded")
	}
}

// TestClusterRejectsUnknownLocalizer: a misspelt localizer name is an
// error, not a silent fallback to Algorithm 1.
func TestClusterRejectsUnknownLocalizer(t *testing.T) {
	tp, err := topo.BuildClos(topo.ClosConfig{
		Pods: 1, ToRsPerPod: 2, AggsPerPod: 1, Spines: 1,
		HostsPerToR: 1, RNICsPerHost: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{Topology: tp, Localizer: "oo7"},
		{Topology: tp, Analyzer: analyzer.Config{Localizer: "oo7"}},
	} {
		if _, err := NewCluster(cfg); err == nil {
			t.Fatalf("NewCluster accepted localizer %q", "oo7")
		}
	}
	for _, name := range []string{"", analyzer.LocalizerAlg1, analyzer.Localizer007} {
		if _, err := NewCluster(Config{Topology: tp, Localizer: name}); err != nil {
			t.Fatalf("NewCluster(Localizer %q): %v", name, err)
		}
	}
}

func TestHealthyClusterBaseline(t *testing.T) {
	c := smallCluster(t, 1)
	c.StartAgents()
	c.Run(90 * sim.Second)

	rep, ok := c.Analyzer.LastReport()
	if !ok {
		t.Fatal("no analysis windows ran")
	}
	if rep.Cluster.Probes == 0 {
		t.Fatal("no cluster probes analyzed")
	}
	// Healthy fabric: no drops, no problems.
	if rep.Cluster.RNICDropRate != 0 || rep.Cluster.SwitchDropRate != 0 {
		t.Fatalf("healthy cluster shows drops: %+v", rep.Cluster)
	}
	if len(rep.Problems) != 0 {
		t.Fatalf("healthy cluster reported problems: %+v", rep.Problems)
	}
	// RTT must be microsecond-scale and positive despite wild clock
	// offsets (±10 s) — the Fig-4 algebra cancels them.
	if rep.Cluster.RTT.P50 <= 0 || rep.Cluster.RTT.P50 > float64(100*sim.Microsecond) {
		t.Fatalf("cluster P50 RTT = %v ns", rep.Cluster.RTT.P50)
	}
	if rep.Cluster.ResponderDelay.P50 <= 0 {
		t.Fatal("no responder delay measured")
	}
	// Agents actually probed and answered.
	for _, hid := range c.Topo.AllHosts() {
		st := c.Agent(hid).Stats
		if st.ProbesSent == 0 || st.ProbesAnswered == 0 || st.Uploads == 0 {
			t.Fatalf("agent %s idle: %+v", hid, st)
		}
		if st.Timeouts != 0 {
			t.Fatalf("agent %s has %d timeouts on a healthy fabric", hid, st.Timeouts)
		}
	}
}

func TestRTTUnaffectedByClockDrift(t *testing.T) {
	tp, err := topo.BuildClos(topo.ClosConfig{Pods: 1, ToRsPerPod: 2, AggsPerPod: 1, Spines: 1, HostsPerToR: 2, RNICsPerHost: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(Config{Topology: tp, Seed: 3, MaxDriftPPM: 50})
	if err != nil {
		t.Fatal(err)
	}
	c.StartAgents()
	c.Run(60 * sim.Second)
	rep, _ := c.Analyzer.LastReport()
	// 50 ppm drift over a ~10µs RTT contributes sub-ns error; over the ±10s
	// offset it contributes ~0.5ms to absolute clock readings. The
	// subtraction algebra must keep RTT in the µs range regardless.
	if rep.Cluster.RTT.P99 <= 0 || rep.Cluster.RTT.P99 > float64(200*sim.Microsecond) {
		t.Fatalf("P99 RTT under drift = %v ns", rep.Cluster.RTT.P99)
	}
}

func TestRNICDownDetected(t *testing.T) {
	c := smallCluster(t, 2)
	c.StartAgents()
	c.Run(45 * sim.Second) // two clean windows

	victim := c.Topo.RNICsUnderToR("tor-0-0")[0]
	c.Device(victim).SetUp(false)
	c.Run(45 * sim.Second)

	found := false
	for _, p := range c.Analyzer.Problems() {
		if p.Kind == analyzer.ProblemRNIC && p.Device == victim {
			found = true
		}
		if p.Kind == analyzer.ProblemSwitchLink {
			t.Fatalf("RNIC-down misattributed to switch link: %+v", p)
		}
	}
	if !found {
		t.Fatalf("RNIC down not detected; problems: %+v", c.Analyzer.Problems())
	}
	// No service running: the problem must be P2.
	for _, p := range c.Analyzer.Problems() {
		if p.Kind == analyzer.ProblemRNIC && p.Priority != analyzer.P2 {
			t.Fatalf("serviceless RNIC problem priority = %v, want P2", p.Priority)
		}
	}
}

func TestFabricLinkDownLocalized(t *testing.T) {
	c := smallCluster(t, 3)
	c.StartAgents()
	c.Run(45 * sim.Second)

	// Take down a ToR->Agg cable.
	victim := c.Topo.LinkBetween("tor-0-0", "agg-0-0")
	c.Net.SetLinkDown(victim, true)
	c.Run(60 * sim.Second)

	victimCable := c.Topo.Links[victim].Cable
	var located bool
	for _, p := range c.Analyzer.Problems() {
		switch p.Kind {
		case analyzer.ProblemSwitchLink:
			if c.Topo.Links[p.Link].Cable == victimCable {
				located = true
			}
		case analyzer.ProblemRNIC:
			t.Fatalf("link-down misattributed to RNIC: %+v", p)
		}
	}
	if !located {
		t.Fatalf("link down not localized; problems: %+v", c.Analyzer.Problems())
	}
}

func TestQPNResetFilteredAsNoise(t *testing.T) {
	c := smallCluster(t, 4)
	c.StartAgents()
	c.Run(45 * sim.Second)

	// Restart one host's agent: its probing QPNs change; peers keep
	// probing stale QPNs until their 5-minute pinglist refresh.
	victim := c.Topo.AllHosts()[0]
	if err := c.Agent(victim).Restart(); err != nil {
		t.Fatal(err)
	}
	c.Run(45 * sim.Second)

	qpnNoise := 0
	for _, w := range c.Analyzer.Reports() {
		qpnNoise += w.QPNResetTimeouts
	}
	if qpnNoise == 0 {
		t.Fatal("no QPN-reset noise classified after agent restart")
	}
	for _, p := range c.Analyzer.Problems() {
		if p.Kind == analyzer.ProblemRNIC || p.Kind == analyzer.ProblemSwitchLink {
			t.Fatalf("QPN reset produced a false network problem: %+v", p)
		}
	}
}

func TestHostDownClassified(t *testing.T) {
	c := smallCluster(t, 5)
	c.StartAgents()
	c.Run(45 * sim.Second)

	victim := c.Topo.AllHosts()[0]
	c.Host(victim).Host.SetDown(true)
	c.Run(60 * sim.Second)

	hostDown := false
	for _, p := range c.Analyzer.Problems() {
		switch p.Kind {
		case analyzer.ProblemHostDown:
			if p.Host == victim {
				hostDown = true
			}
		case analyzer.ProblemSwitchLink:
			t.Fatalf("host down misattributed to switch: %+v", p)
		case analyzer.ProblemRNIC:
			t.Fatalf("host down misattributed to RNIC: %+v", p)
		}
	}
	if !hostDown {
		t.Fatalf("host down not classified; problems: %+v", c.Analyzer.Problems())
	}
}

func TestCPUStarvationFilteredWithAndWithout(t *testing.T) {
	run := func(disableFilter bool) (cpuNoise int, rnicProblems int) {
		c := smallCluster(t, 6)
		c.Analyzer.DisableCPUNoiseFilter = disableFilter
		c.StartAgents()
		c.Run(45 * sim.Second)
		victim := c.Topo.AllHosts()[0]
		c.Agent(victim).SetStarved(true)
		c.Run(45 * sim.Second)
		for _, w := range c.Analyzer.Reports() {
			cpuNoise += w.CPUNoiseTimeouts
		}
		for _, p := range c.Analyzer.Problems() {
			if p.Kind == analyzer.ProblemRNIC {
				rnicProblems++
			}
		}
		return cpuNoise, rnicProblems
	}

	noise, falsePositives := run(false)
	if noise == 0 {
		t.Fatal("CPU-noise filter never classified starvation timeouts")
	}
	if falsePositives != 0 {
		t.Fatalf("filter enabled but %d false RNIC problems reported", falsePositives)
	}

	_, unfiltered := run(true)
	if unfiltered == 0 {
		t.Fatal("ablation: disabling the filter should reproduce the paper's false positives")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (int64, int) {
		c := smallCluster(t, 42)
		c.StartAgents()
		c.Run(30 * sim.Second)
		var sent int64
		for _, hid := range c.Topo.AllHosts() {
			sent += c.Agent(hid).Stats.ProbesSent
		}
		rep, _ := c.Analyzer.LastReport()
		return sent, int(rep.Cluster.Probes)
	}
	s1, p1 := run()
	s2, p2 := run()
	if s1 != s2 || p1 != p2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", s1, p1, s2, p2)
	}
}

func TestClusterAccessors(t *testing.T) {
	c := smallCluster(t, 7)
	dev := c.Topo.AllRNICs()[0]
	if c.Device(dev) == nil {
		t.Fatal("Device lookup failed")
	}
	if c.Device("nope") != nil {
		t.Fatal("unknown device lookup succeeded")
	}
	if c.DeviceHostNode(dev) == nil || c.DeviceHostNode("nope") != nil {
		t.Fatal("DeviceHostNode lookup wrong")
	}
}

func BenchmarkClusterMinute(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := smallCluster(b, 1)
		c.StartAgents()
		c.Run(sim.Minute)
	}
}

// A medium fabric (256 RNICs — 3 tiers, 4 pods) monitors end to end with
// clean SLAs and full probe coverage; the discrete-event engine keeps a
// virtual minute affordable.
func TestMediumScaleCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("medium-scale run")
	}
	tp, err := topo.BuildClos(topo.ClosConfig{
		Pods: 4, ToRsPerPod: 4, AggsPerPod: 4, Spines: 8,
		HostsPerToR: 4, RNICsPerHost: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(Config{Topology: tp, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	c.StartAgents()
	c.Run(45 * sim.Second)
	rep, ok := c.Analyzer.LastReport()
	if !ok {
		t.Fatal("no analysis window")
	}
	// 256 RNICs x 10pps ToR-mesh alone = 2560 pps -> ~51k probes/window.
	if rep.Cluster.Probes < 40000 {
		t.Fatalf("probes/window = %d, coverage too thin", rep.Cluster.Probes)
	}
	if rep.Cluster.RNICDropRate != 0 || rep.Cluster.SwitchDropRate != 0 {
		t.Fatalf("drops on a healthy medium fabric: %+v", rep.Cluster)
	}
	if len(rep.PerToR) != 16 {
		t.Fatalf("per-ToR SLAs = %d, want 16", len(rep.PerToR))
	}
	// A single fault in the large fabric still localizes.
	victim := tp.LinkBetween("tor-2-1", "agg-2-0")
	c.Net.SetLinkDown(victim, true)
	c.Run(45 * sim.Second)
	cable := tp.Links[victim].Cable
	located := false
	for _, p := range c.Analyzer.Problems() {
		for _, l := range p.Links {
			if tp.Links[l].Cable == cable {
				located = true
			}
		}
	}
	if !located {
		t.Fatalf("fault lost in the medium fabric: %+v", c.Analyzer.Problems())
	}
}

// The INT tracer drop-in (§7.4): same localization outcome, no traceroute
// rate limiting.
func TestClusterWithINTTracer(t *testing.T) {
	tp, err := topo.BuildClos(topo.ClosConfig{
		Pods: 2, ToRsPerPod: 2, AggsPerPod: 2, Spines: 2,
		HostsPerToR: 2, RNICsPerHost: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(Config{Topology: tp, Seed: 8, UseINT: true})
	if err != nil {
		t.Fatal(err)
	}
	c.StartAgents()
	c.Run(45 * sim.Second)
	victim := c.Topo.LinkBetween("tor-1-0", "agg-1-1")
	c.Net.SetLinkDown(victim, true)
	c.Run(60 * sim.Second)
	cable := c.Topo.Links[victim].Cable
	located := false
	for _, p := range c.Analyzer.Problems() {
		for _, l := range p.Links {
			if c.Topo.Links[l].Cable == cable {
				located = true
			}
		}
	}
	if !located {
		t.Fatalf("INT tracer failed to localize: %+v", c.Analyzer.Problems())
	}
}

// A custom (shorter) analysis window still detects correctly — the 20s
// default is a choice, not a dependency.
func TestCustomAnalysisWindow(t *testing.T) {
	tp, err := topo.BuildClos(topo.ClosConfig{
		Pods: 1, ToRsPerPod: 2, AggsPerPod: 1, Spines: 1,
		HostsPerToR: 2, RNICsPerHost: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(Config{
		Topology: tp, Seed: 9,
		Analyzer: analyzer.Config{Window: 5 * sim.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.StartAgents()
	c.Run(20 * sim.Second)
	if len(c.Analyzer.Reports()) < 3 {
		t.Fatalf("only %d windows in 20s at a 5s period", len(c.Analyzer.Reports()))
	}
	victim := c.Topo.AllRNICs()[0]
	c.Device(victim).SetUp(false)
	c.Run(15 * sim.Second)
	found := false
	for _, p := range c.Analyzer.Problems() {
		if p.Device == victim {
			found = true
		}
	}
	if !found {
		t.Fatal("fault missed with a 5s window")
	}
}

// Soak: a long virtual run exercises the periodic machinery end to end —
// 5-minute pinglist refreshes, inter-ToR tuple rotation, comm-info
// refresh — with zero false problems and rotated tuples actually probing.
func TestSoakRotationAndRefresh(t *testing.T) {
	tp, err := topo.BuildClos(topo.ClosConfig{
		Pods: 1, ToRsPerPod: 2, AggsPerPod: 2, Spines: 2,
		HostsPerToR: 2, RNICsPerHost: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(Config{
		Topology: tp, Seed: 13,
		RotateInterval: 10 * sim.Minute, // compress the hourly rotation
	})
	if err != nil {
		t.Fatal(err)
	}
	c.StartAgents()
	c.Run(25 * sim.Minute) // two rotations, five pinglist refreshes

	for _, w := range c.Analyzer.Reports() {
		if len(w.Problems) != 0 {
			t.Fatalf("soak produced problems in window %d: %+v", w.Index, w.Problems)
		}
		if w.QPNResetTimeouts > 0 {
			t.Fatalf("rotation caused QPN-reset noise in window %d", w.Index)
		}
	}
	// All agents kept probing throughout.
	for _, h := range tp.AllHosts() {
		st := c.Agent(h).Stats
		if st.Timeouts != 0 {
			t.Fatalf("agent %s: %d timeouts in a healthy soak", h, st.Timeouts)
		}
		// 25 min x (10 ToR-mesh + inter-ToR) pps x 2 RNICs >> 10000.
		if st.ProbesSent < 10000 {
			t.Fatalf("agent %s sent only %d probes", h, st.ProbesSent)
		}
	}
}
