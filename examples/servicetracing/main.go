// Service tracing: run a DML training job, let R-Pingmesh trace its
// 5-tuples, and watch the P0/P1/P2 impact assessment answer the paper's
// question — "is it a network problem?"
package main

import (
	"fmt"
	"log"

	"rpingmesh/internal/core"
	"rpingmesh/internal/faultgen"
	"rpingmesh/internal/service"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

func main() {
	tp, err := topo.BuildClos(topo.ClosConfig{
		Pods: 2, ToRsPerPod: 2, AggsPerPod: 2, Spines: 4,
		HostsPerToR: 2, RNICsPerHost: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	cluster, err := core.NewCluster(core.Config{Topology: tp, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	cluster.StartAgents()
	cluster.Run(20 * sim.Second)

	// A 6-host AllReduce job; its RC connections are picked up by the
	// Agents' modify_qp tracer, and service-tracing probes copy the exact
	// 5-tuples.
	hosts := tp.AllHosts()
	job, err := cluster.NewJob(service.Config{
		Pattern:         service.AllReduce,
		VolumePerFlowGB: 8,
		StallFailAfter:  sim.Hour,
	}, hosts[:6]...)
	if err != nil {
		log.Fatal(err)
	}
	if err := job.Start(); err != nil {
		log.Fatal(err)
	}
	cluster.Run(sim.Minute)
	rep, _ := cluster.Analyzer.LastReport()
	fmt.Printf("service network: %d probes/window, RTT p50=%.1fµs\n",
		rep.Service.Probes, rep.Service.RTT.P50/float64(sim.Microsecond))

	// Scenario 1: corruption on a fabric link the service uses -> P0/P1.
	in := faultgen.NewInjector(cluster, 7)
	svcLink := job.FlowPaths()[0][1]
	for _, path := range job.FlowPaths() {
		for _, l := range path {
			_, fromSwitch := tp.Switches[tp.Links[l].From]
			_, toSwitch := tp.Switches[tp.Links[l].To]
			if fromSwitch && toSwitch {
				svcLink = l
			}
		}
	}
	fmt.Printf("\n[1] corrupting service-path link %s->%s\n", tp.Links[svcLink].From, tp.Links[svcLink].To)
	af, err := in.Inject(faultgen.Fault{Cause: faultgen.PacketCorruption, Link: svcLink, Severity: 0.08})
	if err != nil {
		log.Fatal(err)
	}
	cluster.Run(45 * sim.Second)
	in.Clear(af)
	printProblems(cluster)

	// Scenario 2: an RNIC outside the service network dies -> P2.
	outside := tp.Hosts[hosts[7]].RNICs[0]
	fmt.Printf("\n[2] killing non-service RNIC %s\n", outside)
	af2, err := in.Inject(faultgen.Fault{Cause: faultgen.RNICDown, Dev: outside})
	if err != nil {
		log.Fatal(err)
	}
	cluster.Run(45 * sim.Second)
	in.Clear(af2)
	printProblems(cluster)

	// Scenario 3: throughput decays from a compute bug while the network
	// is healthy -> "the network is innocent".
	fmt.Println("\n[3] injecting a training-code bug (compute slows down)")
	factor := 1.0
	cluster.Eng.Every(20*sim.Second, 20*sim.Second, func() {
		factor *= 1.3
		for _, h := range tp.AllHosts() {
			job.SetComputeFactor(h, factor)
		}
	})
	cluster.Run(3 * sim.Minute)
	innocent := 0
	for _, w := range cluster.Analyzer.Reports() {
		if w.NetworkInnocent {
			innocent++
		}
	}
	fmt.Printf("analysis windows declaring the network innocent: %d\n", innocent)
}

func printProblems(cluster *core.Cluster) {
	rep, _ := cluster.Analyzer.LastReport()
	if len(rep.Problems) == 0 {
		// Look one window back; detection can straddle the boundary.
		all := cluster.Analyzer.Reports()
		if len(all) >= 2 {
			rep = all[len(all)-2]
		}
	}
	for _, p := range rep.Problems {
		where := string(p.Device)
		if where == "" {
			where = string(p.Host)
		}
		if len(p.Links) > 0 {
			l := cluster.Topo.Links[p.Link]
			where = fmt.Sprintf("%s->%s", l.From, l.To)
		}
		fmt.Printf("  -> %s problem at %s, priority %s (service-tracing: %v)\n",
			p.Kind, where, p.Priority, p.FromServiceTracing)
	}
}
