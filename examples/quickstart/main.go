// Quickstart: build a small RoCE cluster, deploy R-Pingmesh, break a
// fabric link, and read the diagnosis.
package main

import (
	"fmt"
	"log"

	"rpingmesh/internal/core"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

func main() {
	// A 3-tier CLOS: 2 pods x 2 ToRs, 2 hosts/ToR, 2 RNICs each.
	tp, err := topo.BuildClos(topo.ClosConfig{
		Pods: 2, ToRsPerPod: 2, AggsPerPod: 2, Spines: 4,
		HostsPerToR: 2, RNICsPerHost: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	cluster, err := core.NewCluster(core.Config{Topology: tp, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}

	// Start every host's Agent: they register with the Controller, pull
	// ToR-mesh and inter-ToR pinglists, and begin probing.
	cluster.StartAgents()
	cluster.Run(45 * sim.Second)

	healthy, _ := cluster.Analyzer.LastReport()
	fmt.Printf("healthy cluster: %d probes/window, RTT p50=%.1fµs p99=%.1fµs, drops=%d\n",
		healthy.Cluster.Probes,
		healthy.Cluster.RTT.P50/float64(sim.Microsecond),
		healthy.Cluster.RTT.P99/float64(sim.Microsecond),
		healthy.Cluster.RNICDrops+healthy.Cluster.SwitchDrops)

	// Cut a ToR->Agg cable and let the Analyzer localize it.
	victim := tp.LinkBetween("tor-0-0", "agg-0-0")
	fmt.Printf("\ncutting cable %s <-> %s ...\n", tp.Links[victim].From, tp.Links[victim].To)
	cluster.Net.SetLinkDown(victim, true)
	cluster.Run(60 * sim.Second)

	for _, p := range cluster.Analyzer.Problems() {
		switch {
		case len(p.Links) > 0:
			fmt.Printf("window %d: %s problem, priority %s, candidates:\n", p.Window, p.Kind, p.Priority)
			for _, l := range p.Links {
				fmt.Printf("  %s -> %s (%d votes)\n", tp.Links[l].From, tp.Links[l].To, p.Evidence)
			}
		default:
			fmt.Printf("window %d: %s problem at %s%s, priority %s\n", p.Window, p.Kind, p.Device, p.Host, p.Priority)
		}
	}
}
