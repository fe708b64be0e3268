package core_test

import (
	"testing"

	"rpingmesh/internal/core"
	"rpingmesh/internal/proto"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
	"rpingmesh/internal/wire"
)

// The Fig-3 deployment end to end: Agents talk to the Controller over
// REAL TCP (internal/wire control frames) while the data plane runs in the
// simulator. Registration, pinglist pulls, and service-tracing lookups
// all cross the socket; the monitoring outcome must match the in-memory
// wiring.
func TestAgentsOverTCPController(t *testing.T) {
	tp, err := topo.BuildClos(topo.ClosConfig{
		Pods: 1, ToRsPerPod: 2, AggsPerPod: 2, Spines: 2,
		HostsPerToR: 2, RNICsPerHost: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	var srv *wire.Server
	var cli *wire.Client
	c, err := core.NewCluster(core.Config{
		Topology: tp,
		Seed:     21,
		WrapController: func(local proto.Controller) proto.Controller {
			srv, err = wire.Listen("127.0.0.1:0", local, nil)
			if err != nil {
				t.Fatal(err)
			}
			cli, err = wire.Dial(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			return cli
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer cli.Close()

	c.StartAgents()
	c.Run(45 * sim.Second)

	if err := cli.Err(); err != nil {
		t.Fatalf("transport error during run: %v", err)
	}
	// Registration crossed the wire into the analyzer's QPN registry.
	if c.Controller.Registered() != len(tp.RNICs) {
		t.Fatalf("registered %d of %d RNICs over TCP", c.Controller.Registered(), len(tp.RNICs))
	}
	rep, ok := c.Analyzer.LastReport()
	if !ok || rep.Cluster.Probes == 0 {
		t.Fatal("no probes analyzed with the TCP controller")
	}
	if rep.Cluster.RNICDropRate != 0 || rep.Cluster.SwitchDropRate != 0 {
		t.Fatalf("unexpected drops: %+v", rep.Cluster)
	}

	// A fault still round-trips correctly: kill an RNIC, expect the same
	// diagnosis as with in-memory wiring.
	victim := tp.AllRNICs()[0]
	c.Device(victim).SetUp(false)
	c.Run(45 * sim.Second)
	found := false
	for _, p := range c.Analyzer.Problems() {
		if p.Device == victim {
			found = true
		}
	}
	if !found {
		t.Fatalf("RNIC-down not diagnosed over TCP: %+v", c.Analyzer.Problems())
	}
}
