package analyzer

import (
	"testing"

	"rpingmesh/internal/proto"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

// Quarantine expires after RNICQuarantine: timeouts touching the RNIC go
// back to switch attribution once the window has passed.
func TestQuarantineExpiry(t *testing.T) {
	h := newHarness(t, Config{RNICQuarantine: 30 * sim.Second})
	victim := h.torA[0]
	other := h.tp.RNICsUnderToR("tor-1-0")[0]
	fabric := h.tp.LinkBetween("tor-1-0", "agg-1-0")

	// Window 1: victim detected.
	h.uploadAll(h.torMeshTraffic(5, map[topo.DeviceID]bool{victim: true}))
	h.tick()

	// Window 2 (quarantine active at +20s < 30s): timeouts to victim are
	// RNIC-attributed.
	r := h.mkResult(other, victim, proto.InterToR, true)
	r.ProbePath = []topo.LinkID{fabric}
	h.uploadAll([]proto.ProbeResult{r, r, r, r})
	rep := h.tick()
	if rep.Cluster.RNICDrops != 4 {
		t.Fatalf("window2 RNICDrops = %d", rep.Cluster.RNICDrops)
	}

	// Window 4 (+80s, quarantine long expired, victim healthy again in
	// ToR-mesh): the same timeouts now vote a switch link.
	h.uploadAll(h.torMeshTraffic(5, nil))
	h.tick()
	h.uploadAll(append([]proto.ProbeResult{r, r, r, r}, h.torMeshTraffic(5, nil)...))
	rep = h.tick()
	if rep.Cluster.SwitchDrops != 4 {
		t.Fatalf("post-expiry SwitchDrops = %d (problems %+v)", rep.Cluster.SwitchDrops, rep.Problems)
	}
}

// Per-ToR SLAs partition the cluster probes exactly.
func TestPerToRSLAPartition(t *testing.T) {
	h := newHarness(t, Config{})
	h.uploadAll(h.torMeshTraffic(3, nil))
	rep := h.tick()
	if len(rep.PerToR) != len(h.tp.ToRs()) {
		t.Fatalf("PerToR has %d entries, want %d", len(rep.PerToR), len(h.tp.ToRs()))
	}
	var sum int64
	for _, sla := range rep.PerToR {
		if sla.Probes == 0 {
			t.Fatal("empty per-ToR SLA")
		}
		sum += sla.Probes
	}
	if sum != rep.Cluster.Probes {
		t.Fatalf("per-ToR probes sum %d != cluster %d", sum, rep.Cluster.Probes)
	}
}

// Per-ToR aggregation excludes service-tracing probes (§7.4).
func TestPerToRExcludesServiceTracing(t *testing.T) {
	h := newHarness(t, Config{})
	var results []proto.ProbeResult
	for i := 0; i < 10; i++ {
		results = append(results, h.mkResult(h.torA[0], h.torA[1], proto.ServiceTracing, false))
	}
	h.uploadAll(results)
	rep := h.tick()
	for tor, sla := range rep.PerToR {
		if sla.Probes != 0 {
			t.Fatalf("service probes leaked into per-ToR SLA of %s", tor)
		}
	}
}

// A down host that belongs to the service network is urgent (P0); one
// outside it is P2.
func TestHostDownPriorities(t *testing.T) {
	h := newHarness(t, Config{})
	svcSrc := h.torA[0]
	svcDst := h.tp.RNICsUnderToR("tor-0-1")[0]
	deadInService := h.tp.RNICs[svcDst].Host
	deadOutside := h.tp.RNICs[h.tp.RNICsUnderToR("tor-1-1")[0]].Host

	// Window 1: service probes mark hosts + baseline uploads.
	var results []proto.ProbeResult
	for i := 0; i < 5; i++ {
		results = append(results, h.mkResult(svcSrc, svcDst, proto.ServiceTracing, false))
	}
	results = append(results, h.torMeshTraffic(2, nil)...)
	h.uploadAll(results)
	h.tick()

	// Window 2: both hosts silent; probes to their RNICs time out.
	h.eng.RunUntil(h.eng.Now() + 20*sim.Second)
	var r2 []proto.ProbeResult
	for _, dead := range []topo.HostID{deadInService, deadOutside} {
		for _, dst := range h.tp.Hosts[dead].RNICs {
			src := h.torA[1]
			for i := 0; i < 3; i++ {
				r2 = append(r2, h.mkResult(src, dst, proto.ToRMesh, true))
			}
		}
	}
	byHost := map[topo.HostID][]proto.ProbeResult{}
	for _, hid := range h.tp.AllHosts() {
		if hid != deadInService && hid != deadOutside {
			byHost[hid] = nil
		}
	}
	for _, r := range r2 {
		byHost[r.SrcHost] = append(byHost[r.SrcHost], r)
	}
	for hid, rs := range byHost {
		h.an.Upload(proto.UploadBatch{Host: hid, Sent: h.eng.Now(), Results: rs})
	}
	rep := h.an.Tick()

	prios := map[topo.HostID]Priority{}
	for _, p := range rep.Problems {
		if p.Kind == ProblemHostDown {
			prios[p.Host] = p.Priority
		}
	}
	if prios[deadInService] != P0 {
		t.Fatalf("in-service host down priority = %v, want P0 (problems %+v)", prios[deadInService], rep.Problems)
	}
	if prios[deadOutside] != P2 {
		t.Fatalf("outside host down priority = %v, want P2", prios[deadOutside])
	}
}

// DisableRNICDetection (the Pingmesh ablation) stops ToR-mesh analysis.
func TestDisableRNICDetection(t *testing.T) {
	h := newHarness(t, Config{})
	h.an.DisableRNICDetection = true
	victim := h.torA[0]
	h.uploadAll(h.torMeshTraffic(5, map[topo.DeviceID]bool{victim: true}))
	rep := h.tick()
	for _, p := range rep.Problems {
		if p.Kind == ProblemRNIC && p.Evidence > 0 && p.Device == victim && len(p.Links) == 0 {
			t.Fatalf("RNIC detection ran despite the flag: %+v", p)
		}
	}
	// The timeouts fall through to switch attribution instead.
	if rep.Cluster.SwitchDrops == 0 {
		t.Fatal("timeouts vanished instead of falling through to switch attribution")
	}
}

// Suspicious-switch voting (footnote 5) respects the evidence gate.
func TestSuspiciousSwitchesGate(t *testing.T) {
	h := newHarness(t, Config{MinSwitchEvidence: 10})
	fabric := h.tp.LinkBetween("tor-0-0", "agg-0-0")
	var results []proto.ProbeResult
	for i := 0; i < 5; i++ { // below the gate
		r := h.mkResult(h.torA[0], h.tp.RNICsUnderToR("tor-1-0")[0], proto.InterToR, true)
		r.ProbePath = []topo.LinkID{fabric}
		results = append(results, r)
	}
	results = append(results, h.torMeshTraffic(2, nil)...)
	h.uploadAll(results)
	rep := h.tick()
	if len(rep.SuspiciousSwitches) != 0 {
		t.Fatalf("switch voting ran below the gate: %+v", rep.SuspiciousSwitches)
	}
}

// High responder delay on one host (signature B) classifies CPU noise
// even when only one RNIC times out.
func TestCPUNoiseHighDelaySignature(t *testing.T) {
	h := newHarness(t, Config{})
	victimHost := h.tp.RNICs[h.torA[0]].Host
	var results []proto.ProbeResult
	// Successful probes to the victim host answer extremely slowly.
	for _, dst := range h.tp.Hosts[victimHost].RNICs {
		for i := 0; i < 30; i++ {
			r := h.mkResult(h.torA[1], dst, proto.ToRMesh, false)
			r.ResponderDelay = 50 * sim.Millisecond
			results = append(results, r)
		}
	}
	// And one of its RNICs also shows timeouts above the 10% threshold.
	for i := 0; i < 30; i++ {
		results = append(results, h.mkResult(h.torA[1], h.tp.Hosts[victimHost].RNICs[0], proto.ToRMesh, true))
	}
	results = append(results, h.torMeshTraffic(5, nil)...)
	h.uploadAll(results)
	rep := h.tick()
	if rep.CPUNoiseTimeouts == 0 {
		t.Fatal("high-delay signature did not classify CPU noise")
	}
	for _, p := range rep.Problems {
		if p.Kind == ProblemRNIC && h.tp.RNICs[p.Device].Host == victimHost {
			t.Fatalf("overloaded host's RNIC reported as failure: %+v", p)
		}
	}
}

// One-way probes must not pollute the processing-delay SLA with zeros.
func TestOneWayExcludedFromDelaySLA(t *testing.T) {
	h := newHarness(t, Config{})
	var results []proto.ProbeResult
	for i := 0; i < 10; i++ {
		r := h.mkResult(h.torA[0], h.torA[1], proto.InterToR, false)
		r.OneWay = true
		r.OneWayDelay = 3 * sim.Microsecond
		r.NetworkRTT = 6 * sim.Microsecond
		r.ResponderDelay = 0
		r.ProberDelay = 0
		results = append(results, r)
	}
	for i := 0; i < 10; i++ {
		results = append(results, h.mkResult(h.torA[0], h.torA[1], proto.ToRMesh, false))
	}
	h.uploadAll(results)
	rep := h.tick()
	// Two-way probes carry 15µs responder delay; one-way zeros must not
	// drag the P50 down.
	if rep.Cluster.ResponderDelay.P50 != float64(15*sim.Microsecond) {
		t.Fatalf("one-way zeros polluted delay SLA: P50 = %v", rep.Cluster.ResponderDelay.P50)
	}
	if rep.Cluster.RTT.Count != 20 {
		t.Fatalf("RTT samples = %d, want 20 (one-way RTTs count)", rep.Cluster.RTT.Count)
	}
}

// seriesOf projects report history into a plottable series.
func TestSeriesOf(t *testing.T) {
	h := newHarness(t, Config{})
	for i := 0; i < 3; i++ {
		h.uploadAll(h.torMeshTraffic(3, nil))
		h.tick()
	}
	s := h.an.seriesOf("rtt-p50", "ns", func(w WindowReport) float64 {
		return w.Cluster.RTT.P50
	})
	if len(s.Points) != 3 {
		t.Fatalf("series has %d points, want 3", len(s.Points))
	}
	for i, p := range s.Points {
		if p.V != float64(10*sim.Microsecond) {
			t.Fatalf("point %d = %v", i, p.V)
		}
		if i > 0 && p.T <= s.Points[i-1].T {
			t.Fatal("series times not increasing")
		}
	}
	if s.Sparkline(3) == "" {
		t.Fatal("series does not render")
	}
}
