package analyzer

import (
	"sort"

	"rpingmesh/internal/metrics"
	"rpingmesh/internal/pipeline"
	"rpingmesh/internal/proto"
	"rpingmesh/internal/topo"
)

// slaAcc accumulates one aggregation group's SLA (cluster, service, or
// one destination ToR). The distributions live in the Analyzer's
// per-group scratch pool and are Reset — not reallocated — every window.
type slaAcc struct {
	rtt, respd, probd *metrics.Distribution
	sla               *SLA
}

// acquireAcc fetches the named group's scratch accumulator, resetting it
// for the new window and pointing it at the SLA it fills. Reset replays
// the subsampling RNG from its seed, so a pooled accumulator produces
// bit-identical summaries to a freshly allocated one.
func (a *Analyzer) acquireAcc(key string, sla *SLA) *slaAcc {
	g, ok := a.accPool[key]
	if !ok {
		g = &slaAcc{
			rtt:   metrics.NewDistribution(),
			respd: metrics.NewDistribution(),
			probd: metrics.NewDistribution(),
		}
		a.accPool[key] = g
	} else {
		g.rtt.Reset()
		g.respd.Reset()
		g.probd.Reset()
	}
	g.sla = sla
	return g
}

// fill consumes record i of rs into the group's SLA.
func (g *slaAcc) fill(rs *proto.Records, i int, c Cause) {
	g.sla.Probes++
	if rs.Timeout(i) {
		switch c {
		case CauseRNIC:
			g.sla.RNICDrops++
		case CauseSwitch:
			g.sla.SwitchDrops++
		default:
			g.sla.NoiseDrops++
		}
		return
	}
	g.rtt.Add(float64(rs.NetworkRTT(i)))
	if !rs.OneWay(i) {
		// One-way probes exchange no ACKs, so they carry no
		// processing-delay decomposition.
		g.respd.Add(float64(rs.ResponderDelay(i)))
		g.probd.Add(float64(rs.ProberDelay(i)))
	}
}

func (g *slaAcc) finish() {
	if g.sla.Probes > 0 {
		g.sla.RNICDropRate = float64(g.sla.RNICDrops) / float64(g.sla.Probes)
		g.sla.SwitchDropRate = float64(g.sla.SwitchDrops) / float64(g.sla.Probes)
	}
	g.sla.RTT = g.rtt.Summarize()
	g.sla.ResponderDelay = g.respd.Summarize()
	g.sla.ProberDelay = g.probd.Summarize()
}

// stageSLAAggregate fills the per-window cluster and service SLAs (§5)
// plus the per-destination-ToR hierarchy (Cluster Monitoring only,
// §7.4).
//
// Parallel mode shards by aggregation group, not by result range: each
// group is owned by exactly one worker (keyed with the ingest tier's
// pipeline.PartitionKey), and that worker scans the full results slice
// in order. Every group's distributions therefore observe the identical
// ordered sample stream as the serial pass — reservoir subsampling state
// and all — so the report is bit-identical for any worker count.
func (a *Analyzer) stageSLAAggregate(st *windowState) {
	rep := st.Report

	// Discover this window's per-ToR groups up front so scratch
	// accumulators can be bound before workers start.
	torSet := make(map[topo.DeviceID]bool)
	for i, n := 0, st.Recs.Len(); i < n; i++ {
		rt := st.Recs.RouteAt(i)
		if rt.Kind == proto.ServiceTracing {
			continue
		}
		if dst, ok := a.tp.RNICs[rt.DstDev]; ok {
			torSet[dst.ToR] = true
		}
	}
	tors := make([]topo.DeviceID, 0, len(torSet))
	for tor := range torSet {
		tors = append(tors, tor)
	}
	sort.Slice(tors, func(i, j int) bool { return tors[i] < tors[j] })

	cluster := a.acquireAcc("cluster", &rep.Cluster)
	service := a.acquireAcc("service", &rep.Service)
	accByTor := make(map[topo.DeviceID]*slaAcc, len(tors))
	for _, tor := range tors {
		accByTor[tor] = a.acquireAcc("tor:"+string(tor), &SLA{})
	}

	w := a.workers()
	n := st.Recs.Len()
	if w <= 1 {
		for i := 0; i < n; i++ {
			rt := st.Recs.RouteAt(i)
			if rt.Kind == proto.ServiceTracing {
				service.fill(st.Recs, i, st.Causes[i])
				continue
			}
			cluster.fill(st.Recs, i, st.Causes[i])
			if dst, ok := a.tp.RNICs[rt.DstDev]; ok {
				accByTor[dst.ToR].fill(st.Recs, i, st.Causes[i])
			}
		}
	} else {
		ownerByTor := make(map[topo.DeviceID]int, len(tors))
		for _, tor := range tors {
			ownerByTor[tor] = pipeline.PartitionKey("tor:"+string(tor), w)
		}
		clusterOwner := pipeline.PartitionKey("cluster", w)
		serviceOwner := pipeline.PartitionKey("service", w)
		runSharded(w, func(wi int) {
			doCluster := clusterOwner == wi
			doService := serviceOwner == wi
			ownsToR := false
			for _, owner := range ownerByTor {
				if owner == wi {
					ownsToR = true
					break
				}
			}
			if !doCluster && !doService && !ownsToR {
				return
			}
			for i := 0; i < n; i++ {
				rt := st.Recs.RouteAt(i)
				if rt.Kind == proto.ServiceTracing {
					if doService {
						service.fill(st.Recs, i, st.Causes[i])
					}
					continue
				}
				if doCluster {
					cluster.fill(st.Recs, i, st.Causes[i])
				}
				dst, ok := a.tp.RNICs[rt.DstDev]
				if !ok {
					continue
				}
				if ownerByTor[dst.ToR] == wi {
					accByTor[dst.ToR].fill(st.Recs, i, st.Causes[i])
				}
			}
		})
	}

	cluster.finish()
	service.finish()
	rep.PerToR = make(map[topo.DeviceID]SLA, len(tors))
	for _, tor := range tors {
		g := accByTor[tor]
		g.finish()
		rep.PerToR[tor] = *g.sla
	}
}
