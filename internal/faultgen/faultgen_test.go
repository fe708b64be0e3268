package faultgen

import (
	"testing"

	"rpingmesh/internal/analyzer"
	"rpingmesh/internal/core"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

func cluster(t testing.TB, seed int64) *core.Cluster {
	t.Helper()
	tp, err := topo.BuildClos(topo.ClosConfig{
		Pods: 2, ToRsPerPod: 2, AggsPerPod: 2, Spines: 2,
		HostsPerToR: 2, RNICsPerHost: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.NewCluster(core.Config{Topology: tp, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCauseStringsAndCategories(t *testing.T) {
	for c := FlappingPort; c <= PCIeMisconfig; c++ {
		if c.String() == "" {
			t.Fatalf("cause %d empty string", c)
		}
	}
	if Cause(99).String() == "" || Category(99).String() == "" {
		t.Fatal("unknown enums must stringify")
	}
	cases := map[Cause]Category{
		FlappingPort:         HardwareFailure,
		PFCDeadlock:          HardwareFailure,
		MissingRouteConfig:   Misconfiguration,
		PFCHeadroomMisconfig: Misconfiguration,
		UnevenLoadBalance:    NetworkCongestion,
		ServiceInterference:  NetworkCongestion,
		CPUOverload:          IntraHostBottleneck,
		PCIeMisconfig:        IntraHostBottleneck,
	}
	for c, want := range cases {
		if got := CategoryOf(c); got != want {
			t.Fatalf("CategoryOf(%v) = %v, want %v", c, got, want)
		}
	}
	if numCauses != int(PCIeMisconfig) {
		t.Fatalf("numCauses = %d, want %d", numCauses, int(PCIeMisconfig))
	}
}

func TestInjectAndClearRNICDown(t *testing.T) {
	c := cluster(t, 1)
	in := NewInjector(c, 1)
	dev := c.Topo.AllRNICs()[0]
	af, err := in.Inject(Fault{Cause: RNICDown, Dev: dev})
	if err != nil {
		t.Fatal(err)
	}
	if c.Device(dev).Up() {
		t.Fatal("device still up")
	}
	if len(in.active) != 1 || len(in.History()) != 1 {
		t.Fatal("bookkeeping wrong")
	}
	c.Run(sim.Second) // advance so Cleared gets a nonzero stamp
	in.Clear(af)
	if !c.Device(dev).Up() {
		t.Fatal("device still down after clear")
	}
	if len(in.active) != 0 {
		t.Fatal("still active after clear")
	}
	if af.Cleared == 0 {
		t.Fatal("Cleared timestamp not set")
	}
	in.Clear(af) // idempotent
}

func TestInjectValidatesTargets(t *testing.T) {
	c := cluster(t, 2)
	in := NewInjector(c, 1)
	bad := []Fault{
		{Cause: RNICDown},
		{Cause: RNICDown, Dev: "nope"},
		{Cause: HostDown, Host: "nope"},
		{Cause: PFCDeadlock, Link: -1},
		{Cause: PFCDeadlock, Link: 99999},
		{Cause: CPUOverload},
		{Cause: PCIeDowngraded, Dev: "nope"},
		{Cause: ACLError},
		{Cause: UnevenLoadBalance, Link: -1},
		{Cause: Cause(99)},
		{Cause: FlappingPort, Link: -1},
	}
	for i, f := range bad {
		if _, err := in.Inject(f); err == nil {
			t.Errorf("case %d: Inject(%+v) succeeded", i, f)
		}
	}
	if len(in.active) != 0 {
		t.Fatal("failed injections left active faults")
	}
}

func TestFlappingToggles(t *testing.T) {
	c := cluster(t, 3)
	in := NewInjector(c, 1)
	dev := c.Topo.AllRNICs()[0]
	af, err := in.Inject(Fault{Cause: FlappingPort, Dev: dev})
	if err != nil {
		t.Fatal(err)
	}
	downSeen, upSeen := false, false
	for i := 0; i < 20; i++ {
		c.Run(300 * sim.Millisecond)
		if c.Device(dev).Up() {
			upSeen = true
		} else {
			downSeen = true
		}
	}
	if !downSeen || !upSeen {
		t.Fatalf("flap did not toggle: down=%v up=%v", downSeen, upSeen)
	}
	in.Clear(af)
	c.Run(2 * sim.Second)
	if !c.Device(dev).Up() {
		t.Fatal("device left down after flap cleared")
	}
}

func TestLinkFlapToggles(t *testing.T) {
	c := cluster(t, 4)
	in := NewInjector(c, 1)
	link := c.Topo.LinkBetween("tor-0-0", "agg-0-0")
	af, err := in.Inject(Fault{Cause: FlappingPort, Link: link})
	if err != nil {
		t.Fatal(err)
	}
	downSeen, upSeen := false, false
	for i := 0; i < 20; i++ {
		c.Run(300 * sim.Millisecond)
		if c.Net.LinkDown(link) {
			downSeen = true
		} else {
			upSeen = true
		}
	}
	if !downSeen || !upSeen {
		t.Fatal("link flap did not toggle")
	}
	in.Clear(af)
	if c.Net.LinkDown(link) {
		t.Fatal("link left down")
	}
}

func TestACLInjectionBlocksVictim(t *testing.T) {
	c := cluster(t, 5)
	c.StartAgents()
	c.Run(30 * sim.Second)
	in := NewInjector(c, 1)
	victim := c.Topo.AllRNICs()[0]
	af, err := in.Inject(Fault{Cause: ACLError, Dev: victim})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(45 * sim.Second)
	// The victim becomes unreachable: detected as an RNIC problem (the
	// ACL sits at its ToR ingress, indistinguishable from an RNIC fault
	// from the probes' viewpoint at this blast radius).
	found := false
	for _, p := range c.Analyzer.Problems() {
		if p.Kind == analyzer.ProblemRNIC && p.Device == victim {
			found = true
		}
	}
	if !found {
		t.Fatalf("ACL isolation not detected: %+v", c.Analyzer.Problems())
	}
	in.Clear(af)
}

func TestCongestionInjection(t *testing.T) {
	c := cluster(t, 6)
	in := NewInjector(c, 1)
	link := c.Topo.LinkBetween("tor-0-0", "agg-0-0")
	af, err := in.Inject(Fault{Cause: UnevenLoadBalance, Link: link, Severity: 3})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(100 * sim.Millisecond)
	if c.Net.QueueBytesOn(link) <= 0 {
		t.Fatal("no queue built on target link")
	}
	if c.Net.Flows() == 0 {
		t.Fatal("no background flows installed")
	}
	in.Clear(af)
	if c.Net.Flows() != 0 {
		t.Fatal("background flows not removed")
	}
}

func TestPCIeStormRaisesRTTToVictim(t *testing.T) {
	c := cluster(t, 7)
	c.StartAgents()
	c.Run(30 * sim.Second)
	before, _ := c.Analyzer.LastReport()

	in := NewInjector(c, 1)
	victim := c.Topo.AllRNICs()[0]
	if _, err := in.Inject(Fault{Cause: PCIeDowngraded, Dev: victim}); err != nil {
		t.Fatal(err)
	}
	c.Run(45 * sim.Second)
	after, _ := c.Analyzer.LastReport()
	if after.Cluster.RTT.P999 < before.Cluster.RTT.P999*3 {
		t.Fatalf("PFC storm invisible in tail RTT: %v -> %v", before.Cluster.RTT.P999, after.Cluster.RTT.P999)
	}
	// And no spurious drop problems.
	for _, p := range c.Analyzer.Problems() {
		if p.Kind == analyzer.ProblemRNIC || p.Kind == analyzer.ProblemSwitchLink {
			t.Fatalf("PFC storm produced drop problems: %+v", p)
		}
	}
}

func TestCPUOverloadRestoresLoad(t *testing.T) {
	c := cluster(t, 8)
	in := NewInjector(c, 1)
	host := c.Topo.AllHosts()[0]
	c.Host(host).Host.SetLoad(0.2)
	af, err := in.Inject(Fault{Cause: CPUOverload, Host: host})
	if err != nil {
		t.Fatal(err)
	}
	if c.Host(host).Host.Load() < 0.9 {
		t.Fatal("load not raised")
	}
	in.Clear(af)
	if c.Host(host).Host.Load() != 0.2 {
		t.Fatalf("load not restored: %v", c.Host(host).Host.Load())
	}
}

func TestGenerateScheduleShape(t *testing.T) {
	c := cluster(t, 9)
	in := NewInjector(c, 42)
	sched := in.GenerateSchedule(ScheduleConfig{
		Duration: 10 * sim.Hour,
		EventsPerHour: map[Cause]float64{
			FlappingPort: 2,
			RNICDown:     1,
			CPUOverload:  1,
		},
	})
	if len(sched) < 20 || len(sched) > 80 {
		t.Fatalf("schedule size = %d, expected ~40 for 4 events/hour x 10h", len(sched))
	}
	last := sim.Time(-1)
	for _, ev := range sched {
		if ev.At < last {
			t.Fatal("schedule not sorted")
		}
		last = ev.At
		if ev.At >= 10*sim.Hour {
			t.Fatal("event beyond horizon")
		}
		if ev.Duration < 30*sim.Second {
			t.Fatal("fault shorter than detection floor")
		}
		f := ev.Fault
		if f.Dev == "" && f.Host == "" && f.Link == 0 && f.Cause != PFCDeadlock {
			// Link 0 is a valid ID, so only sanity-check that SOME target
			// field is plausibly set for device/host causes.
			if f.Cause == RNICDown || f.Cause == HostDown || f.Cause == CPUOverload {
				t.Fatalf("no target on %+v", f)
			}
		}
	}
}

func TestPlayInjectsAndClears(t *testing.T) {
	c := cluster(t, 10)
	in := NewInjector(c, 11)
	dev := c.Topo.AllRNICs()[0]
	events := []Event{
		{At: sim.Second, Duration: 2 * sim.Second, Fault: Fault{Cause: RNICDown, Dev: dev}},
	}
	handles := in.Play(events)
	c.Run(1500 * sim.Millisecond)
	if c.Device(dev).Up() {
		t.Fatal("fault not injected on schedule")
	}
	if len(*handles) != 1 {
		t.Fatal("handle not recorded")
	}
	c.Run(3 * sim.Second)
	if !c.Device(dev).Up() {
		t.Fatal("fault not cleared on schedule")
	}
	if len(in.active) != 0 {
		t.Fatal("active faults remain")
	}
}

func TestClearAll(t *testing.T) {
	c := cluster(t, 12)
	in := NewInjector(c, 1)
	ids := c.Topo.AllRNICs()
	for i := 0; i < 3; i++ {
		if _, err := in.Inject(Fault{Cause: RNICDown, Dev: ids[i]}); err != nil {
			t.Fatal(err)
		}
	}
	in.ClearAll()
	if len(in.active) != 0 {
		t.Fatal("ClearAll left faults")
	}
	for i := 0; i < 3; i++ {
		if !c.Device(ids[i]).Up() {
			t.Fatal("device left down")
		}
	}
}
