package experiments

import (
	"net/netip"

	"rpingmesh/internal/core"
	"rpingmesh/internal/ecmp"
	"rpingmesh/internal/metrics"
	"rpingmesh/internal/proto"
	"rpingmesh/internal/rnic"
	"rpingmesh/internal/sim"
)

func init() {
	register("table1", "QP type comparison: RTT observability and connection overhead", runTable1)
	register("eq1", "Equation 1: 5-tuples needed to cover N parallel paths (P=0.99)", runEq1)
	register("fig4", "Probe protocol: RTT/processing-delay recovery under unsynchronized clocks", runFig4)
}

// runTable1 reproduces Table 1. Accurate RTT measurement requires the
// send CQE at wire time (②/④) — available on UC/UD, unavailable on RC
// where the CQE waits for the transport ACK. Connection overhead is the
// QP-context consumption at probing fan-out.
func runTable1(seed int64) *Report {
	rep := newReport("table1", "RC vs UC vs UD")
	eng := sim.New(seed)
	net := newLoopNet(eng, 50*sim.Microsecond)
	a := rnic.NewDevice(eng, net, rnic.Config{ID: "probe-rnic", IP: ip4(10, 0, 0, 1), GID: "a", Host: "h1", QPCCacheQPs: 256})
	b := rnic.NewDevice(eng, net, rnic.Config{ID: "target-rnic", IP: ip4(10, 0, 0, 2), GID: "b", Host: "h2"})
	net.add(a)
	net.add(b)

	// Wire-time observability per type: time from post to send CQE.
	sendCQEAt := func(t rnic.QPType) sim.Time {
		remote := b.CreateQP(t)
		qp := a.CreateQP(t)
		if t != rnic.UD {
			if err := qp.Connect(b.IP(), b.GID(), remote.QPN()); err != nil {
				panic(err)
			}
			if err := remote.Connect(a.IP(), a.GID(), qp.QPN()); err != nil {
				panic(err)
			}
		}
		var at sim.Time = -1
		start := eng.Now()
		qp.OnCompletion(func(c rnic.CQE) {
			if c.Type == rnic.CQESend && at < 0 {
				at = eng.Now() - start
			}
		})
		req := rnic.SendRequest{SrcPort: 1000, Payload: make([]byte, 50)}
		if t == rnic.UD {
			req.DstIP, req.DstGID, req.DstQPN = b.IP(), b.GID(), remote.QPN()
		}
		if err := qp.PostSend(req); err != nil {
			panic(err)
		}
		eng.Run()
		return at
	}

	// Connection overhead at the paper's fan-out ("an RNIC can probe
	// hundreds of other RNICs"): contexts consumed and cache misses.
	const fanout = 512
	overheadRC := func(t rnic.QPType) (contexts int, misses int64) {
		dev := rnic.NewDevice(eng, net, rnic.Config{ID: "fan", IP: ip4(10, 0, 1, 1), GID: "f", Host: "h3", QPCCacheQPs: 256})
		net.add(dev)
		remote := b.CreateQP(t)
		var qps []*rnic.QP
		for i := 0; i < fanout; i++ {
			qp := dev.CreateQP(t)
			if err := qp.Connect(b.IP(), b.GID(), remote.QPN()); err != nil {
				panic(err)
			}
			qps = append(qps, qp)
		}
		for round := 0; round < 10; round++ {
			for _, qp := range qps {
				_ = qp.PostSend(rnic.SendRequest{SrcPort: 1})
			}
			eng.RunUntil(eng.Now() + sim.Second)
		}
		return dev.QPCCacheActive(), dev.Counters.QPCCacheMisses
	}

	rcAt := sendCQEAt(rnic.RC)
	ucAt := sendCQEAt(rnic.UC)
	udAt := sendCQEAt(rnic.UD)
	rcCtx, rcMiss := overheadRC(rnic.RC)
	ucCtx, ucMiss := overheadRC(rnic.UC)
	// UD: one QP reaches every target.
	udCtx, udMiss := 1, int64(0)

	row := func(name string, at sim.Time, ctx int, miss int64) {
		// The send CQE observed the wire only if it fired before the
		// one-way delay; otherwise it waited for the remote ACK.
		accurate := "yes (send CQE at wire)"
		if at > 10*sim.Microsecond {
			accurate = "NO  (send CQE after ACK)"
		}
		rep.addf("%-3s  accurate RTT: %-26s send CQE at %-10v contexts@%d targets: %4d  cache misses: %d",
			name, accurate, at, fanout, ctx, miss)
	}
	row("RC", rcAt, rcCtx, rcMiss)
	row("UC", ucAt, ucCtx, ucMiss)
	row("UD", udAt, udCtx, udMiss)

	rep.metric("rc_send_cqe_us", us(float64(rcAt)))
	rep.metric("ud_send_cqe_us", us(float64(udAt)))
	rep.metric("uc_send_cqe_us", us(float64(ucAt)))
	rep.metric("rc_contexts", float64(rcCtx))
	rep.metric("uc_contexts", float64(ucCtx))
	rep.metric("ud_contexts", float64(udCtx))
	rep.metric("rc_cache_misses", float64(rcMiss))
	rep.metric("ud_cache_misses", float64(udMiss))
	_ = ucMiss
	return rep
}

// runEq1 reproduces Equation 1's table: k vs N at P=0.99, with the
// achieved analytic coverage.
func runEq1(seed int64) *Report {
	rep := newReport("eq1", "Tuples to cover N ECMP paths, P=0.99")
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		k := ecmp.TuplesForCoverage(n, 0.99)
		p := ecmp.CoverageProbability(n, k)
		rep.addf("N=%2d  ->  k=%3d   coverage=%.4f", n, k, p)
		rep.metric(metricN("k_for_N", n), float64(k))
	}
	return rep
}

func metricN(prefix string, n int) string {
	return prefix + "_" + string(rune('0'+n/10)) + string(rune('0'+n%10))
}

// runFig4 validates the probing protocol end-to-end: with every RNIC and
// host clock offset by up to ±10 s and drifting up to ±50 ppm, the
// recovered network RTT must stay within physical bounds (microseconds,
// never negative) and the responder delay must match the host model.
func runFig4(seed int64) *Report {
	rep := newReport("fig4", "Timestamp algebra under unsynchronized clocks")
	rtt := metrics.NewDistribution()
	respd := metrics.NewDistribution()
	probd := metrics.NewDistribution()
	negatives := 0
	total := 0
	c := newStdCluster(seed, func(cfg *core.Config) { cfg.MaxDriftPPM = 50 })
	c.TapRecords(func(b *proto.RecordBatch) {
		for i := 0; i < b.Len(); i++ {
			if b.Timeout(i) {
				continue
			}
			total++
			netRTT, resp, prob := b.NetworkRTT(i), b.ResponderDelay(i), b.ProberDelay(i)
			if netRTT < 0 || resp < 0 || prob < 0 {
				negatives++
			}
			rtt.Add(float64(netRTT))
			respd.Add(float64(resp))
			probd.Add(float64(prob))
		}
	})
	c.Run(2 * sim.Minute)

	rep.addf("probes completed: %d   negative components: %d", total, negatives)
	rep.addf("network RTT     p50 %6.1f µs  p99 %6.1f µs  max %6.1f µs", us(rtt.P50()), us(rtt.P99()), us(rtt.Max()))
	rep.addf("responder delay p50 %6.1f µs  p99 %6.1f µs", us(respd.P50()), us(respd.P99()))
	rep.addf("prober delay    p50 %6.1f µs  p99 %6.1f µs", us(probd.P50()), us(probd.P99()))
	rep.metric("probes", float64(total))
	rep.metric("negative_components", float64(negatives))
	rep.metric("rtt_p50_us", us(rtt.P50()))
	rep.metric("rtt_p99_us", us(rtt.P99()))
	rep.metric("responder_delay_p50_us", us(respd.P50()))
	return rep
}

// --- local helpers -----------------------------------------------------

func ip4(a, b, c, d byte) netip.Addr { return netip.AddrFrom4([4]byte{a, b, c, d}) }

// loopNet is a tiny fixed-delay network for Table 1's isolated QP
// micro-measurements (no fabric needed).
type loopNet struct {
	eng   *sim.Engine
	devs  map[netip.Addr]*rnic.Device
	delay sim.Time
}

func newLoopNet(eng *sim.Engine, delay sim.Time) *loopNet {
	return &loopNet{eng: eng, devs: make(map[netip.Addr]*rnic.Device), delay: delay}
}

func (n *loopNet) add(d *rnic.Device) { n.devs[d.IP()] = d }

func (n *loopNet) SendPacket(p *rnic.Packet) {
	if dst, ok := n.devs[p.Tuple.DstIP]; ok {
		n.eng.After(n.delay, func() { dst.Deliver(p) })
	}
}
