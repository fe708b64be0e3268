// TCP deployment (Fig 3): the Controller runs behind a real TCP endpoint
// and every Agent's registration, pinglist pull, and service-tracing
// lookup crosses the socket — while the RoCE data plane runs in the
// simulator. This is the wiring cmd/rpmesh-controller serves standalone.
package main

import (
	"fmt"
	"log"

	"rpingmesh/internal/core"
	"rpingmesh/internal/proto"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
	"rpingmesh/internal/wire"
)

func main() {
	tp, err := topo.BuildClos(topo.ClosConfig{
		Pods: 1, ToRsPerPod: 2, AggsPerPod: 2, Spines: 2,
		HostsPerToR: 2, RNICsPerHost: 2,
	})
	if err != nil {
		log.Fatal(err)
	}

	var srv *wire.Server
	cluster, err := core.NewCluster(core.Config{
		Topology: tp,
		Seed:     5,
		WrapController: func(local proto.Controller) proto.Controller {
			srv, err = wire.Listen("127.0.0.1:0", local, nil)
			if err != nil {
				log.Fatal(err)
			}
			cli, err := wire.Dial(srv.Addr())
			if err != nil {
				log.Fatal(err)
			}
			return cli
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("controller serving on tcp://%s\n", srv.Addr())

	cluster.StartAgents()
	cluster.Run(45 * sim.Second)

	fmt.Printf("RNICs registered over TCP: %d/%d\n", cluster.Controller.Registered(), len(tp.RNICs))
	rep, _ := cluster.Analyzer.LastReport()
	fmt.Printf("monitoring live: %d probes/window, RTT p50 %.1fµs, drops %d\n",
		rep.Cluster.Probes,
		rep.Cluster.RTT.P50/float64(sim.Microsecond),
		rep.Cluster.RNICDrops+rep.Cluster.SwitchDrops)
}
