package agent

import (
	"slices"
	"testing"

	"rpingmesh/internal/controller"
	"rpingmesh/internal/ecmp"
	"rpingmesh/internal/proto"
	"rpingmesh/internal/rnic"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/simnet"
	"rpingmesh/internal/topo"
	"rpingmesh/internal/trace"
	"rpingmesh/internal/verbs"
)

// batchSink keeps every flat batch uploaded to it (ownership passes to
// the sink).
type batchSink struct{ batches []*proto.RecordBatch }

func (s *batchSink) UploadRecords(b *proto.RecordBatch) { s.batches = append(s.batches, b) }

// TestRetraceKeepsOneRoutePerEntry: re-tracing a probed tuple returns the
// same cached path, so an upload batch interns exactly one route per
// probed pinglist entry however many re-traces it spans, and every route
// carries the fabric's true forward and ACK paths.
func TestRetraceKeepsOneRoutePerEntry(t *testing.T) {
	tp, err := topo.BuildClos(topo.ClosConfig{
		Pods: 1, ToRsPerPod: 2, AggsPerPod: 2, Spines: 2,
		HostsPerToR: 2, RNICsPerHost: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New(3)
	net := simnet.New(eng, tp, simnet.Config{})
	ctrl := controller.New(eng, tp, controller.Config{})
	tr := trace.NewTraceroute(eng, net)
	tr.PerSwitchRPS, tr.Burst = 1e9, 1e9 // every trace completes
	sink := &batchSink{}
	var agents []*Agent
	for i, hid := range tp.AllHosts() {
		h := rnic.NewHost(eng, hid, rnic.Clock{})
		for _, devID := range tp.Hosts[hid].RNICs {
			info := tp.RNICs[devID]
			d := rnic.NewDevice(eng, net, rnic.Config{ID: devID, IP: info.IP, GID: info.GID, Host: hid})
			h.Attach(d)
			net.Register(d)
		}
		var up proto.RecordSink = nullSink{}
		if i == 0 {
			up = sink
		}
		agents = append(agents, New(eng, verbs.NewStack(h), ctrl, up, tr, Config{}))
	}
	for _, a := range agents {
		if err := a.Start(); err != nil {
			t.Fatal(err)
		}
	}
	// Pinglists name only RNICs registered when they are built.
	watched := agents[0]
	watched.RefreshPinglists()
	// 3.5 trace intervals: every probed tuple is re-traced three times.
	eng.RunUntil(35 * sim.Second)

	if len(sink.batches) < 6 {
		t.Fatalf("%d uploads, want ≥ 6", len(sink.batches))
	}
	if tuples := len(watched.paths); watched.Stats.Traces < 3*int64(tuples) {
		t.Fatalf("%d traces of %d tuples: fewer than three rounds", watched.Stats.Traces, tuples)
	}
	type entry struct {
		kind    proto.ProbeKind
		src     topo.DeviceID
		dst     topo.DeviceID
		srcPort uint16
		qpn     rnic.QPN
	}
	for bi, b := range sink.batches {
		if b.Len() == 0 {
			t.Fatalf("batch %d is empty", bi)
		}
		used := make([]bool, b.Routes())
		for i := 0; i < b.Len(); i++ {
			used[b.RouteIndex(i)] = true
		}
		seen := map[entry]bool{}
		for ri := int32(0); ri < int32(b.Routes()); ri++ {
			rt := b.Route(ri)
			e := entry{rt.Kind, rt.SrcDev, rt.DstDev, rt.SrcPort, rt.DstQPN}
			if seen[e] {
				t.Fatalf("batch %d: pinglist entry %+v interned twice", bi, e)
			}
			seen[e] = true
			if !used[ri] {
				t.Fatalf("batch %d: route %d has no record", bi, ri)
			}
			fwd, err := tp.Route(rt.SrcDev, rt.DstDev, ecmp.RoCETuple(rt.SrcIP, rt.DstIP, rt.SrcPort).Hasher())
			if err != nil {
				t.Fatal(err)
			}
			ack, err := tp.Route(rt.DstDev, rt.SrcDev, ecmp.RoCETuple(rt.DstIP, rt.SrcIP, rt.SrcPort).Hasher())
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(rt.ProbePath, fwd) || !slices.Equal(rt.AckPath, ack) {
				t.Fatalf("batch %d route %d: paths %v / %v, topo routes %v / %v", bi, ri, rt.ProbePath, rt.AckPath, fwd, ack)
			}
		}
	}
}
