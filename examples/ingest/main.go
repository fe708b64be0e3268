// Ingest tier end to end: Agents upload through the sharded pipeline,
// the Analyzer publishes each window into the bounded time-series store,
// and historical queries are answered from the store — followed by an
// overload demo showing each backpressure policy with exact drop
// accounting.
package main

import (
	"fmt"
	"log"

	"rpingmesh/internal/core"
	"rpingmesh/internal/pipeline"
	"rpingmesh/internal/proto"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

func main() {
	// Part 1 — the full path: agent → pipeline → analyzer → tsdb.
	tp, err := topo.BuildClos(topo.ClosConfig{
		Pods: 2, ToRsPerPod: 2, AggsPerPod: 2, Spines: 4,
		HostsPerToR: 2, RNICsPerHost: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	cluster, err := core.NewCluster(core.Config{
		Topology: tp, Seed: 7,
		// Explicitly small ingest tier so the self-metrics are legible.
		Pipeline: pipeline.Config{Partitions: 4, Capacity: 64},
	})
	if err != nil {
		log.Fatal(err)
	}
	cluster.StartAgents()
	cluster.Run(90 * sim.Second) // four 20s analyzer windows, plus slack

	st := cluster.Ingest.Stats()
	fmt.Printf("pipeline self-metrics: %s\n", st)
	for i, ps := range st.Partitions {
		fmt.Printf("  partition %d: in=%d out=%d depth=%d max_depth=%d\n",
			i, ps.Enqueued, ps.Dequeued, ps.Depth, ps.MaxDepth)
	}

	rep, _ := cluster.Analyzer.LastReport()
	fmt.Printf("last window: %d probes, RTT p50=%.1fµs\n",
		rep.Cluster.Probes, rep.Cluster.RTT.P50/float64(sim.Microsecond))

	// Historical queries come from the tsdb, not analyzer state: the
	// per-window series survive even after the analyzer trims its
	// retained reports.
	fmt.Printf("tsdb series: %v\n", cluster.TSDB.Series())
	for _, p := range cluster.TSDB.Range("cluster.rtt.p50", 0, cluster.Eng.Now()) {
		fmt.Printf("  window ending %3ds: cluster p50 = %.1fµs\n",
			int(p.T/sim.Second), p.V/float64(sim.Microsecond))
	}
	if q, ok := cluster.TSDB.Quantile("cluster.rtt.p99", 0, cluster.Eng.Now(), 0.5); ok {
		fmt.Printf("  median per-window p99 over the run: %.1fµs\n",
			q/float64(sim.Microsecond))
	}

	// Part 2 — overload: a tiny 1-partition queue under each policy.
	// 12 uploads into capacity 4 with no consumer running, then a manual
	// drain; every shed batch is accounted.
	fmt.Println("\noverload demo: 12 uploads, capacity 4, no consumer until drain")
	for _, pol := range []pipeline.Policy{
		pipeline.DropOldest, pipeline.DropNewest, pipeline.Block,
	} {
		var delivered counter
		p := pipeline.New(pipeline.Config{Partitions: 1, Capacity: 4, Policy: pol})
		p.SubscribeRecords(&delivered)
		for i := 0; i < 12; i++ {
			b := &proto.RecordBatch{Host: topo.HostID("host-0"), Seq: uint64(i + 1)}
			b.AppendResult(proto.ProbeResult{})
			p.UploadRecords(b)
		}
		p.DrainAll()
		s := p.Stats()
		fmt.Printf("  %-11s in=%d out=%d delivered_results=%d dropped=%d shed_results=%d block_waits=%d\n",
			pol, s.Enqueued, s.Dequeued, delivered, s.Dropped(), s.ResultsShed, s.BlockWaits)
	}
}

// counter is a record sink that counts the probe results delivered to it.
type counter int

func (c *counter) UploadRecords(b *proto.RecordBatch) { *c += counter(b.Len()) }
