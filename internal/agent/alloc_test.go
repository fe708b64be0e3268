package agent

import (
	"net/netip"
	"testing"

	"rpingmesh/internal/proto"
	"rpingmesh/internal/rnic"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/simnet"
	"rpingmesh/internal/topo"
	"rpingmesh/internal/verbs"
)

// registry is a Controller that only resolves registered RNICs: it
// issues no pinglists, so the test alone decides which probes run.
type registry map[netip.Addr]proto.RNICInfo

func (r registry) Register(infos []proto.RNICInfo) {
	for _, info := range infos {
		r[info.IP] = info
	}
}
func (r registry) Pinglists(topo.HostID) []proto.Pinglist { return nil }
func (r registry) Lookup(ip netip.Addr) (proto.RNICInfo, bool) {
	info, ok := r[ip]
	return info, ok
}

type nullSink struct{}

func (nullSink) UploadRecords(*proto.RecordBatch) {}

// TestProbeRoundTripAllocs is the allocation gate of the steady-state
// probe path on a 2-host fabric: probe → ② → ACK1 → ④ → ACK2 → ⑥ →
// record, through the engine, simnet, both RNICs and both Agents, must
// allocate nothing but the amortised growth of the batch's columns
// (which AllocsPerRun's integer average rounds away). The two hosts probe
// each other so both devices send and receive alike, as every host of a
// cluster does. One run is 10 ms, so each run also fires every Agent's
// idle service-tracing ticker once.
func TestProbeRoundTripAllocs(t *testing.T) {
	tp, err := topo.BuildClos(topo.ClosConfig{
		Pods: 1, ToRsPerPod: 1, AggsPerPod: 1, Spines: 1,
		HostsPerToR: 2, RNICsPerHost: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New(1)
	net := simnet.New(eng, tp, simnet.Config{})
	ctrl := registry{}
	var agents []*Agent
	for _, hid := range tp.AllHosts() {
		h := rnic.NewHost(eng, hid, rnic.Clock{})
		for _, devID := range tp.Hosts[hid].RNICs {
			info := tp.RNICs[devID]
			d := rnic.NewDevice(eng, net, rnic.Config{ID: devID, IP: info.IP, GID: info.GID, Host: hid})
			h.Attach(d)
			net.Register(d)
		}
		agents = append(agents, New(eng, verbs.NewStack(h), ctrl, nullSink{}, nil, Config{}))
	}
	for _, a := range agents {
		if err := a.Start(); err != nil {
			t.Fatal(err)
		}
	}
	a, b := agents[0], agents[1]
	rsA := a.rnics[a.host.Devices()[0].ID()]
	rsB := b.rnics[b.host.Devices()[0].ID()]
	toB := proto.PingTarget{Dst: rsB.info, SrcPort: 50001}
	toA := proto.PingTarget{Dst: rsA.info, SrcPort: 50002}
	const perRun = 10
	run := func() {
		for i := 0; i < perRun; i++ {
			a.probe(rsA, proto.ToRMesh, toB)
			b.probe(rsB, proto.ToRMesh, toA)
			eng.RunUntil(eng.Now() + sim.Millisecond)
		}
	}
	// Warm the pools, the route interning and the path cache.
	for i := 0; i < 10; i++ {
		run()
	}

	// 200 runs stay inside the first 5 s upload interval.
	const runs = 200
	before := a.PendingResults()
	allocs := testing.AllocsPerRun(runs, run)
	if got := a.PendingResults() - before; got != (runs+1)*perRun {
		t.Fatalf("%d records over %d runs, want %d per run", got, runs+1, perRun)
	}
	for _, ag := range agents {
		if ag.Stats.Timeouts != 0 || ag.InflightProbes() != 0 {
			t.Fatalf("%s: %d timeouts, %d probes in flight", ag.host.ID(), ag.Stats.Timeouts, ag.InflightProbes())
		}
	}
	if allocs != 0 {
		t.Fatalf("steady-state probing allocates %v times per %d round trips, want 0", allocs, perRun)
	}
}
