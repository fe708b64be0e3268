package rpingmesh_test

import (
	"testing"

	"rpingmesh/internal/analyzer"
	"rpingmesh/internal/core"
	"rpingmesh/internal/experiments"
	"rpingmesh/internal/faultgen"
	"rpingmesh/internal/service"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

// The README quickstart, verbatim in spirit: build, monitor, break, read
// the diagnosis — through the internal packages the README snippet uses.
func TestQuickstartFlow(t *testing.T) {
	tp, err := topo.BuildClos(topo.ClosConfig{
		Pods: 2, ToRsPerPod: 2, AggsPerPod: 2, Spines: 4,
		HostsPerToR: 2, RNICsPerHost: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := core.NewCluster(core.Config{Topology: tp, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	cluster.StartAgents()
	cluster.Run(45 * sim.Second)

	rep, ok := cluster.Analyzer.LastReport()
	if !ok || rep.Cluster.Probes == 0 {
		t.Fatal("no monitoring data")
	}
	if rep.Cluster.RTT.P50 <= 0 {
		t.Fatal("no RTT measured")
	}

	victim := tp.LinkBetween("tor-0-0", "agg-0-0")
	cluster.Net.SetLinkDown(victim, true)
	cluster.Run(sim.Minute)

	problems := cluster.Analyzer.Problems()
	if len(problems) == 0 {
		t.Fatal("fault not diagnosed")
	}
	cable := tp.Links[victim].Cable
	located := false
	for _, p := range problems {
		for _, l := range p.Links {
			if tp.Links[l].Cable == cable {
				located = true
			}
		}
	}
	if !located {
		t.Fatalf("wrong localization: %+v", problems)
	}
}

func TestFacadeInjectorAndJob(t *testing.T) {
	tp, err := topo.BuildClos(topo.ClosConfig{
		Pods: 1, ToRsPerPod: 2, AggsPerPod: 1, Spines: 1, HostsPerToR: 2, RNICsPerHost: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := core.NewCluster(core.Config{Topology: tp, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cluster.StartAgents()

	job, err := cluster.NewJob(service.Config{VolumePerFlowGB: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Start(); err != nil {
		t.Fatal(err)
	}
	in := faultgen.NewInjector(cluster, 1)
	af, err := in.Inject(faultgen.Fault{Cause: faultgen.CPUOverload, Host: tp.AllHosts()[0]})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Run(30 * sim.Second)
	in.Clear(af)
	if job.Iterations() == 0 {
		t.Fatal("job made no progress")
	}
}

func TestFacadeRailAndExperiments(t *testing.T) {
	if _, err := topo.BuildRailOptimized(topo.RailConfig{Hosts: 2, Rails: 2, Spines: 2}); err != nil {
		t.Fatal(err)
	}
	if len(experiments.All()) < 15 {
		t.Fatalf("experiment registry too small: %d", len(experiments.All()))
	}
	if _, ok := experiments.ByID("fig6"); !ok {
		t.Fatal("fig6 missing from the facade registry")
	}
	if _, ok := experiments.ByID("nope"); ok {
		t.Fatal("unknown experiment resolved")
	}
	if analyzer.P0.String() != "P0" || analyzer.P2.String() != "P2" {
		t.Fatal("priority aliases broken")
	}
}
