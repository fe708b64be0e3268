package core

import (
	"testing"

	"rpingmesh/internal/analyzer"
	"rpingmesh/internal/proto"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

func railCluster(t testing.TB, seed int64) *Cluster {
	t.Helper()
	tp, err := topo.BuildRailOptimized(topo.RailConfig{Hosts: 4, Rails: 4, Spines: 4})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(Config{Topology: tp, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRailOneWayProbing(t *testing.T) {
	c := railCluster(t, 1)
	oneWay, twoWay := 0, 0
	var oneWayRTTs []float64
	c.TapRecords(func(b *proto.RecordBatch) {
		for i := 0; i < b.Len(); i++ {
			r := b.ResultAt(i)
			if r.Timeout {
				continue
			}
			if r.OneWay {
				oneWay++
				oneWayRTTs = append(oneWayRTTs, float64(r.NetworkRTT))
				if r.SrcHost != r.DstHost {
					t.Errorf("one-way probe crossed hosts: %s -> %s", r.SrcHost, r.DstHost)
				}
				if r.ResponderDelay != 0 {
					t.Error("one-way probe carries a responder delay")
				}
				if r.NetworkRTT != 2*r.OneWayDelay {
					t.Error("one-way RTT equivalent is not 2x the delay")
				}
			} else {
				twoWay++
			}
		}
	})
	c.StartAgents()
	c.Run(45 * sim.Second)

	// Inter-"ToR" pinglists in rail mode are host-local, so one-way
	// probes must flow; ToR-mesh (rail-local, inter-host) stays two-way.
	if oneWay == 0 {
		t.Fatal("no one-way probes on a rail cluster")
	}
	if twoWay == 0 {
		t.Fatal("no two-way (ToR-mesh) probes on a rail cluster")
	}
	// One-way delay crosses rail->spine->rail: ~3 hops plus NIC overhead;
	// the clock calibration must cancel the device offsets (±10 s!).
	for _, rtt := range oneWayRTTs {
		if rtt <= 0 || rtt > float64(100*sim.Microsecond) {
			t.Fatalf("one-way RTT equivalent %v ns out of physical range", rtt)
		}
	}
	// Agents counted their one-way work.
	total := int64(0)
	for _, h := range c.Topo.AllHosts() {
		total += c.Agent(h).Stats.OneWayProbes
	}
	if total == 0 {
		t.Fatal("agents report no one-way probes")
	}
}

func TestRailOneWayTimeoutDetection(t *testing.T) {
	c := railCluster(t, 2)
	c.StartAgents()
	c.Run(45 * sim.Second)

	// Break a rail->spine cable: host-local inter-rail probes crossing it
	// time out one-way (no ACK involved) and localization still works.
	victim := c.Topo.LinkBetween("rail-0", "spine-1")
	c.Net.SetLinkDown(victim, true)
	c.Run(60 * sim.Second)

	cable := c.Topo.Links[victim].Cable
	located := false
	for _, p := range c.Analyzer.Problems() {
		if p.Kind != analyzer.ProblemSwitchLink {
			continue
		}
		for _, l := range p.Links {
			if c.Topo.Links[l].Cable == cable {
				located = true
			}
		}
	}
	if !located {
		t.Fatalf("rail fault not localized from one-way timeouts: %+v", c.Analyzer.Problems())
	}
}

func TestRailPerToRSLA(t *testing.T) {
	c := railCluster(t, 3)
	c.StartAgents()
	c.Run(45 * sim.Second)
	rep, _ := c.Analyzer.LastReport()
	if len(rep.PerToR) == 0 {
		t.Fatal("no per-ToR SLAs aggregated")
	}
	for tor, sla := range rep.PerToR {
		if sla.Probes == 0 {
			t.Fatalf("rail switch %s has an empty SLA", tor)
		}
	}
}

func TestSuspiciousSwitchesReported(t *testing.T) {
	c := smallCluster(t, 11)
	c.StartAgents()
	c.Run(45 * sim.Second)
	victim := c.Topo.LinkBetween("tor-0-0", "agg-0-0")
	c.Net.SetLinkDown(victim, true)
	c.Run(45 * sim.Second)
	found := false
	for _, w := range c.Analyzer.Reports() {
		for _, sv := range w.SuspiciousSwitches {
			if sv.Switch == "tor-0-0" || sv.Switch == "agg-0-0" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("switch-level voting (footnote 5) did not flag an endpoint of the dead cable")
	}
}
