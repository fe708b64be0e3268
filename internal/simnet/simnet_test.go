package simnet

import (
	"net/netip"
	"testing"

	"rpingmesh/internal/ecmp"
	"rpingmesh/internal/rnic"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

// rig wires a topology, a data plane, and one device per RNIC.
type rig struct {
	eng  *sim.Engine
	tp   *topo.Topology
	net  *Net
	devs map[topo.DeviceID]*rnic.Device
	qps  map[topo.DeviceID]*rnic.QP
}

func newRig(t testing.TB, cfg Config) *rig {
	t.Helper()
	tp, err := topo.BuildClos(topo.ClosConfig{
		Pods: 2, ToRsPerPod: 2, AggsPerPod: 2, Spines: 2,
		HostsPerToR: 2, RNICsPerHost: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New(7)
	net := New(eng, tp, cfg)
	r := &rig{eng: eng, tp: tp, net: net, devs: map[topo.DeviceID]*rnic.Device{}, qps: map[topo.DeviceID]*rnic.QP{}}
	for _, id := range tp.AllRNICs() {
		info := tp.RNICs[id]
		d := rnic.NewDevice(eng, net, rnic.Config{ID: id, IP: info.IP, GID: info.GID, Host: info.Host})
		net.Register(d)
		r.devs[id] = d
		r.qps[id] = d.CreateQP(rnic.UD)
	}
	return r
}

// sendProbe posts a UD message from a to b and returns whether it arrived
// before the engine drained, plus the one-way latency.
func (r *rig) sendProbe(t testing.TB, a, b topo.DeviceID, srcPort uint16) (bool, sim.Time) {
	t.Helper()
	arrived := false
	var latency sim.Time
	start := r.eng.Now()
	r.qps[b].OnCompletion(func(c rnic.CQE) {
		if c.Type == rnic.CQERecv {
			arrived = true
			latency = r.eng.Now() - start
		}
	})
	err := r.qps[a].PostSend(rnic.SendRequest{
		SrcPort: srcPort,
		DstIP:   r.devs[b].IP(), DstGID: r.devs[b].GID(), DstQPN: r.qps[b].QPN(),
		Payload: make([]byte, 50),
	})
	if err != nil {
		t.Fatal(err)
	}
	// RunUntil rather than Run: live flows keep the fluid ticker armed
	// forever; 5ms dwarfs any single-packet transit time.
	r.eng.RunUntil(r.eng.Now() + 5*sim.Millisecond)
	return arrived, latency
}

func (r *rig) pairCrossPod(t testing.TB) (topo.DeviceID, topo.DeviceID) {
	t.Helper()
	a := r.tp.RNICsUnderToR("tor-0-0")[0]
	b := r.tp.RNICsUnderToR("tor-1-0")[0]
	return a, b
}

func TestProbeDeliveryAcrossFabric(t *testing.T) {
	r := newRig(t, Config{})
	a, b := r.pairCrossPod(t)
	ok, lat := r.sendProbe(t, a, b, 1234)
	if !ok {
		t.Fatal("probe not delivered")
	}
	// 6 hops x 600ns + ~1µs NIC overhead, no congestion: single-digit µs.
	if lat < 3*sim.Microsecond || lat > 20*sim.Microsecond {
		t.Fatalf("idle cross-pod latency = %v", lat)
	}
}

func TestProbeFollowsTuplePath(t *testing.T) {
	r := newRig(t, Config{})
	a, b := r.pairCrossPod(t)
	tuple := ecmp.RoCETuple(r.devs[a].IP(), r.devs[b].IP(), 999)
	want, err := r.net.PathOf(a, tuple)
	if err != nil {
		t.Fatal(err)
	}
	before := make([]int64, len(want))
	for i, l := range want {
		before[i] = r.net.Stats(l).Delivered
	}
	ok, _ := r.sendProbe(t, a, b, 999)
	if !ok {
		t.Fatal("probe not delivered")
	}
	for i, l := range want {
		if r.net.Stats(l).Delivered != before[i]+1 {
			t.Fatalf("link %d on computed path did not carry the probe", l)
		}
	}
}

func TestLinkDownDropsAndLocates(t *testing.T) {
	r := newRig(t, Config{})
	a, b := r.pairCrossPod(t)
	tuple := ecmp.RoCETuple(r.devs[a].IP(), r.devs[b].IP(), 42)
	path, err := r.net.PathOf(a, tuple)
	if err != nil {
		t.Fatal(err)
	}
	victim := path[2] // a fabric link
	r.net.SetLinkDown(victim, true)
	if !r.net.LinkDown(victim) {
		t.Fatal("LinkDown not set")
	}
	ok, _ := r.sendProbe(t, a, b, 42)
	if ok {
		t.Fatal("probe crossed a down link")
	}
	if r.net.Stats(victim).Drops[DropLinkDown] != 1 {
		t.Fatalf("drop not recorded at victim: %+v", r.net.Stats(victim))
	}
	// Both directions of the cable are down.
	rev := r.tp.LinkBetween(r.tp.Links[victim].To, r.tp.Links[victim].From)
	if !r.net.LinkDown(rev) {
		t.Fatal("reverse direction not down")
	}
	// Healing restores delivery.
	r.net.SetLinkDown(victim, false)
	if ok, _ := r.sendProbe(t, a, b, 42); !ok {
		t.Fatal("probe failed after healing")
	}
}

func TestLinkCorruptionIsDirectional(t *testing.T) {
	r := newRig(t, Config{})
	a, b := r.pairCrossPod(t)
	tuple := ecmp.RoCETuple(r.devs[a].IP(), r.devs[b].IP(), 77)
	path, err := r.net.PathOf(a, tuple)
	if err != nil {
		t.Fatal(err)
	}
	r.net.SetLinkCorruption(path[1], 1.0)
	if ok, _ := r.sendProbe(t, a, b, 77); ok {
		t.Fatal("probe survived 100% corruption")
	}
	// The reverse direction is clean: b->a with the mirrored tuple may
	// take a different path, so check the exact reverse link is clean by
	// sending over it: corrupt only forward. Heal and confirm.
	r.net.SetLinkCorruption(path[1], 0)
	if ok, _ := r.sendProbe(t, a, b, 77); !ok {
		t.Fatal("probe failed after corruption cleared")
	}
}

func TestPFCBlockedCable(t *testing.T) {
	r := newRig(t, Config{})
	a, b := r.pairCrossPod(t)
	tuple := ecmp.RoCETuple(r.devs[a].IP(), r.devs[b].IP(), 7)
	path, _ := r.net.PathOf(a, tuple)
	r.net.SetPFCBlocked(path[2], true)
	if ok, _ := r.sendProbe(t, a, b, 7); ok {
		t.Fatal("probe crossed PFC-deadlocked link")
	}
	if r.net.Stats(path[2]).Drops[DropPFC] != 1 {
		t.Fatal("PFC drop not recorded")
	}
	r.net.SetPFCBlocked(path[2], false)
	if ok, _ := r.sendProbe(t, a, b, 7); !ok {
		t.Fatal("probe failed after PFC cleared")
	}
}

func TestACLDeny(t *testing.T) {
	r := newRig(t, Config{})
	a, b := r.pairCrossPod(t)
	tuple := ecmp.RoCETuple(r.devs[a].IP(), r.devs[b].IP(), 5)
	path, _ := r.net.PathOf(a, tuple)
	// Deny at the first switch the packet enters (the source ToR).
	sw := r.tp.Links[path[0]].To
	r.net.DenyACL(sw, r.devs[a].IP(), r.devs[b].IP())
	if ok, _ := r.sendProbe(t, a, b, 5); ok {
		t.Fatal("probe crossed ACL deny")
	}
	// Other pairs are unaffected.
	c := r.tp.RNICsUnderToR("tor-0-0")[1]
	if ok, _ := r.sendProbe(t, c, b, 5); !ok {
		t.Fatal("ACL overmatched")
	}
	r.net.AllowACL(sw, r.devs[a].IP(), r.devs[b].IP())
	if ok, _ := r.sendProbe(t, a, b, 5); !ok {
		t.Fatal("probe failed after ACL allow")
	}
}

func TestUnknownDestination(t *testing.T) {
	r := newRig(t, Config{})
	a := r.tp.AllRNICs()[0]
	err := r.qps[a].PostSend(rnic.SendRequest{
		SrcPort: 1, DstIP: netip.AddrFrom4([4]byte{10, 99, 99, 99}), DstGID: "nowhere", DstQPN: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.eng.Run() // must not panic or deliver
}

func TestFlowUnderCapacity(t *testing.T) {
	r := newRig(t, Config{})
	a, b := r.pairCrossPod(t)
	f, err := r.net.AddFlow(FlowSpec{
		Src: a, Dst: b,
		Tuple:      ecmp.RoCETuple(r.devs[a].IP(), r.devs[b].IP(), 100),
		DemandGbps: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.eng.RunUntil(r.eng.Now() + 50*sim.Millisecond)
	if f.Rate() != 100 {
		t.Fatalf("uncongested flow rate = %v, want 100", f.Rate())
	}
	if r.net.Flows() != 1 {
		t.Fatalf("Flows = %d", r.net.Flows())
	}
}

func TestFlowsShareBottleneck(t *testing.T) {
	r := newRig(t, Config{})
	// Two hosts under the same ToR send full line rate to the same
	// destination host: the destination downlink (400G) is the
	// bottleneck for 800G offered — the paper's many-to-one incast.
	srcs := r.tp.RNICsUnderToR("tor-0-0")
	dst := r.tp.RNICsUnderToR("tor-0-1")[0]
	var flows []*Flow
	for i, s := range srcs[:2] {
		f, err := r.net.AddFlow(FlowSpec{
			Src: s, Dst: dst,
			Tuple:      ecmp.RoCETuple(r.devs[s].IP(), r.devs[dst].IP(), uint16(2000+i)),
			DemandGbps: 400,
		})
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, f)
	}
	r.eng.RunUntil(r.eng.Now() + 100*sim.Millisecond)
	total := flows[0].Rate() + flows[1].Rate()
	if total > 401 {
		t.Fatalf("total rate %v exceeds bottleneck capacity", total)
	}
	if flows[0].Rate() < 150 || flows[1].Rate() < 150 {
		t.Fatalf("unfair split: %v / %v", flows[0].Rate(), flows[1].Rate())
	}
	// The standing queue on the destination downlink inflates probe RTT.
	downlink := r.tp.LinkBetween(r.tp.RNICs[dst].ToR, dst)
	if r.net.QueueBytesOn(downlink) <= 0 {
		t.Fatal("no queue on congested downlink")
	}
	if r.net.queueDelay(r.net.links[downlink]) <= 0 {
		t.Fatal("no queue delay on congested downlink")
	}
	// Probes to the congested host are slower than probes whose path
	// stays entirely inside the idle pod 1.
	src := r.tp.RNICsUnderToR("tor-1-0")[0]
	_, latBusy := r.sendProbe(t, src, dst, 3333)
	idle := r.tp.RNICsUnderToR("tor-1-1")[0]
	_, latIdle := r.sendProbe(t, src, idle, 3334)
	if latBusy <= latIdle {
		t.Fatalf("congestion invisible to probes: busy=%v idle=%v", latBusy, latIdle)
	}
}

func TestFlowBlockedByLinkDown(t *testing.T) {
	r := newRig(t, Config{})
	a, b := r.pairCrossPod(t)
	f, err := r.net.AddFlow(FlowSpec{
		Src: a, Dst: b,
		Tuple:      ecmp.RoCETuple(r.devs[a].IP(), r.devs[b].IP(), 1),
		DemandGbps: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.eng.RunUntil(r.eng.Now() + 20*sim.Millisecond)
	if f.Rate() != 100 {
		t.Fatalf("pre-fault rate = %v", f.Rate())
	}
	r.net.SetLinkDown(f.Path[2], true)
	r.eng.RunUntil(r.eng.Now() + 20*sim.Millisecond)
	if f.Rate() != 0 {
		t.Fatalf("flow rate over down link = %v, want 0", f.Rate())
	}
	r.net.SetLinkDown(f.Path[2], false)
	// Right after the up-transition the link is still unstable
	// (retransmission storms); goodput stays collapsed.
	r.eng.RunUntil(r.eng.Now() + 500*sim.Millisecond)
	if f.Rate() != 0 {
		t.Fatalf("rate during post-flap instability = %v, want 0", f.Rate())
	}
	// After the stabilization window the flow fully recovers.
	r.eng.RunUntil(r.eng.Now() + sim.Second)
	if f.Rate() != 100 {
		t.Fatalf("post-heal rate = %v", f.Rate())
	}
}

func TestFlowCollapsesUnderLoss(t *testing.T) {
	r := newRig(t, Config{})
	a, b := r.pairCrossPod(t)
	f, err := r.net.AddFlow(FlowSpec{
		Src: a, Dst: b,
		Tuple:      ecmp.RoCETuple(r.devs[a].IP(), r.devs[b].IP(), 1),
		DemandGbps: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.eng.RunUntil(r.eng.Now() + 20*sim.Millisecond)
	base := f.Rate()
	r.net.SetLinkCorruption(f.Path[2], 0.01) // 1% loss
	r.eng.RunUntil(r.eng.Now() + 20*sim.Millisecond)
	if f.Rate() > base/2 {
		t.Fatalf("1%% loss barely degraded RDMA flow: %v -> %v", base, f.Rate())
	}
}

func TestLossCollapseFactor(t *testing.T) {
	if lossCollapseFactor(0) != 1 {
		t.Fatal("no loss must not collapse")
	}
	if f := lossCollapseFactor(0.001); f <= 0.9 || f >= 1 {
		t.Fatalf("0.1%% loss factor = %v", f)
	}
	if lossCollapseFactor(0.02) != 0 {
		t.Fatalf("2%% loss should zero out RoCE: %v", lossCollapseFactor(0.02))
	}
}

func TestRerouteFlow(t *testing.T) {
	r := newRig(t, Config{})
	a, b := r.pairCrossPod(t)
	f, err := r.net.AddFlow(FlowSpec{
		Src: a, Dst: b,
		Tuple:      ecmp.RoCETuple(r.devs[a].IP(), r.devs[b].IP(), 1),
		DemandGbps: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Find a source port whose path differs.
	orig := append([]topo.LinkID(nil), f.Path...)
	for port := uint16(2); port < 500; port++ {
		tuple := ecmp.RoCETuple(r.devs[a].IP(), r.devs[b].IP(), port)
		if err := r.net.RerouteFlow(f.ID, tuple); err != nil {
			t.Fatal(err)
		}
		if !equalPaths(orig, f.Path) {
			return // success: path changed
		}
	}
	t.Fatal("no port changed the path")
}

func TestRerouteUnknownFlow(t *testing.T) {
	r := newRig(t, Config{})
	a, b := r.pairCrossPod(t)
	if err := r.net.RerouteFlow(999, ecmp.RoCETuple(r.devs[a].IP(), r.devs[b].IP(), 1)); err == nil {
		t.Fatal("reroute of unknown flow succeeded")
	}
}

func TestRemoveFlowFreesLink(t *testing.T) {
	r := newRig(t, Config{})
	a, b := r.pairCrossPod(t)
	f, _ := r.net.AddFlow(FlowSpec{
		Src: a, Dst: b,
		Tuple:      ecmp.RoCETuple(r.devs[a].IP(), r.devs[b].IP(), 1),
		DemandGbps: 400,
	})
	r.eng.RunUntil(r.eng.Now() + 10*sim.Millisecond)
	r.net.RemoveFlow(f.ID)
	if r.net.Flows() != 0 {
		t.Fatal("flow not removed")
	}
	r.eng.RunUntil(r.eng.Now() + 10*sim.Millisecond)
}

func TestBadHeadroomDropsOnlyUnderCongestion(t *testing.T) {
	r := newRig(t, Config{})
	a, b := r.pairCrossPod(t)
	tuple := ecmp.RoCETuple(r.devs[a].IP(), r.devs[b].IP(), 8)
	path, _ := r.net.PathOf(a, tuple)
	victim := path[2]
	r.net.SetBadHeadroom(victim, true)

	// No congestion: all probes pass.
	for i := 0; i < 20; i++ {
		if ok, _ := r.sendProbe(t, a, b, 8); !ok {
			t.Fatal("headroom misconfig dropped without congestion")
		}
	}
	// Saturate the victim link before each probe so its queue is pinned
	// at the cap at evaluation time (sendProbe lets it drain), then
	// expect drops.
	dropped := 0
	for i := 0; i < 200; i++ {
		r.net.injectQueue(victim, 1e12) // clamped to max
		if ok, _ := r.sendProbe(t, a, b, 8); !ok {
			dropped++
		}
	}
	if dropped == 0 {
		t.Fatal("headroom misconfig never dropped under congestion")
	}
	if got := r.net.Stats(victim).Drops[DropHeadroom]; got != int64(dropped) {
		t.Fatalf("headroom drop accounting: %d vs %d", got, dropped)
	}
}

func TestInjectQueueClampsAndDelays(t *testing.T) {
	r := newRig(t, Config{MaxQueueBytes: 1000})
	l := topo.LinkID(0)
	r.net.injectQueue(l, 5000)
	if got := r.net.QueueBytesOn(l); got != 1000 {
		t.Fatalf("queue = %v, want clamp at 1000", got)
	}
}

func TestDropCauseString(t *testing.T) {
	for c := DropNone; c <= DropNoRoute; c++ {
		if c.String() == "" {
			t.Fatalf("cause %d has empty string", c)
		}
	}
	if DropCause(99).String() == "" {
		t.Fatal("unknown cause must stringify")
	}
}

func equalPaths(a, b []topo.LinkID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func BenchmarkSendPacketAcrossFabric(b *testing.B) {
	r := newRig(b, Config{})
	a, dst := r.pairCrossPod(b)
	qa, qb := r.qps[a], r.qps[dst]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = qa.PostSend(rnic.SendRequest{
			SrcPort: uint16(i), DstIP: r.devs[dst].IP(), DstGID: r.devs[dst].GID(), DstQPN: qb.QPN(),
			Payload: make([]byte, 50),
		})
		r.eng.RunUntil(r.eng.Now() + 100*sim.Microsecond)
	}
}
