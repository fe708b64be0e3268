package experiments

import (
	"math/rand"

	"rpingmesh/internal/cc"
	"rpingmesh/internal/core"
	"rpingmesh/internal/metrics"
	"rpingmesh/internal/proto"
	"rpingmesh/internal/service"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

func init() {
	register("lb-guidance", "Service tracing guides load balancing: reroute congested flows via modify_qp (§7.3)", runLBGuidance)
}

// runLBGuidance demonstrates §7.3's centralized load balancing. An ECMP
// hash collision piles many service connections onto one ToR uplink; the
// service-tracing paths identify exactly which flows share the congested
// link, and the service re-issues modify_qp with new source ports to
// spread them over the parallel uplinks — congestion resolved for the
// job's remaining lifetime (DML connections are long-lived, so the
// one-shot reroute sticks).
func runLBGuidance(seed int64) *Report {
	rep := newReport("lb-guidance", "Reroute congested flows using service-tracing paths")
	c := newStdCluster(seed, func(cfg *core.Config) { cfg.Net.CC = cc.DCQCN{} })

	// Measure the victim flows specifically: service probes sourced under
	// tor-0-0 (the flows we will collide and later spread).
	rtt := metrics.NewDistribution()
	c.TapRecords(func(b *proto.RecordBatch) {
		for i := 0; i < b.Len(); i++ {
			if b.RouteAt(i).Kind != proto.ServiceTracing || b.Timeout(i) {
				continue
			}
			if src, ok := c.Topo.RNICs[b.RouteAt(i).SrcDev]; ok && src.ToR == "tor-0-0" {
				rtt.Add(float64(b.NetworkRTT(i)))
			}
		}
	})

	job, err := c.NewJob(service.Config{
		Pattern:         service.All2All,
		ComputeTime:     500 * sim.Millisecond,
		DemandGbps:      100,
		VolumePerFlowGB: 4,
		StallFailAfter:  sim.Hour,
		Seed:            seed,
	})
	if err != nil {
		panic(err)
	}
	c.Run(10 * sim.Second)
	if err := job.Start(); err != nil {
		panic(err)
	}

	hot := c.Topo.LinkBetween("tor-0-0", "agg-0-0")
	rng := rand.New(rand.NewSource(seed + 99))

	// rerouteUntil steers connection i to a port whose path satisfies
	// want(path). Returns false if no port works (shouldn't happen with
	// 200 tries over 2 uplink choices).
	rerouteUntil := func(i int, want func([]topo.LinkID) bool) bool {
		if want(job.ConnPath(i)) {
			return true
		}
		for attempt := 0; attempt < 200; attempt++ {
			port := uint16(rng.Intn(60000-1024) + 1024)
			if err := job.Reroute(i, port); err != nil {
				panic(err)
			}
			if want(job.ConnPath(i)) {
				return true
			}
		}
		return false
	}
	crossesHot := func(path []topo.LinkID) bool {
		for _, l := range path {
			if l == hot {
				return true
			}
		}
		return false
	}
	avoidsHot := func(path []topo.LinkID) bool { return !crossesHot(path) }

	// Stage 1 — the collision: every cross-ToR connection sourced under
	// tor-0-0 lands on the same uplink (an adversarial hash outcome).
	var victims []int
	for i := 0; i < job.Connections(); i++ {
		path := job.ConnPath(i)
		if len(path) < 2 {
			continue
		}
		if c.Topo.Links[path[0]].To == "tor-0-0" && c.Topo.Links[path[1]].From == "tor-0-0" {
			if _, isSwitch := c.Topo.Switches[c.Topo.Links[path[1]].To]; isSwitch {
				if rerouteUntil(i, crossesHot) {
					victims = append(victims, i)
				}
			}
		}
	}
	rep.addf("collision staged: %d connections forced onto %s->%s",
		len(victims), c.Topo.Links[hot].From, c.Topo.Links[hot].To)

	// Sample the hot uplink's queue at 100 ms so the bursty comm phases
	// are captured (an instantaneous read can land in a compute phase).
	maxQueue := 0.0
	c.Eng.Every(100*sim.Millisecond, 100*sim.Millisecond, func() {
		if q := c.Net.QueueBytesOn(hot); q > maxQueue {
			maxQueue = q
		}
	})

	rtt = metrics.NewDistribution()
	c.Run(90 * sim.Second)
	beforeP99 := rtt.P99()
	queueBefore := maxQueue

	// Stage 2 — the fix: service tracing has been probing these exact
	// 5-tuples; the hot link is identified from their traced paths, and
	// every victim is re-spread via modify_qp.
	rerouted := 0
	for _, i := range victims {
		if rerouteUntil(i, avoidsHot) {
			rerouted++
		}
	}
	rep.addf("rerouted %d connections off the hot uplink via modify_qp", rerouted)

	rtt = metrics.NewDistribution()
	maxQueue = 0
	c.Run(90 * sim.Second)
	afterP99 := rtt.P99()
	queueAfter := maxQueue

	rep.addf("service RTT p99: %.1f µs during collision -> %.1f µs after reroute", us(beforeP99), us(afterP99))
	rep.addf("hot-uplink queue: %.0f B -> %.0f B", queueBefore, queueAfter)
	rep.metric("collided_conns", float64(len(victims)))
	rep.metric("rerouted", float64(rerouted))
	rep.metric("p99_before_us", us(beforeP99))
	rep.metric("p99_after_us", us(afterP99))
	rep.metric("queue_before_bytes", queueBefore)
	rep.metric("queue_after_bytes", queueAfter)
	return rep
}
