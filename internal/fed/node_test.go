package fed

import (
	"fmt"
	"reflect"
	"testing"

	"rpingmesh/internal/analyzer"
	"rpingmesh/internal/proto"
	"rpingmesh/internal/topo"
)

// TestObserveRecordsClaimsPerRecord: claiming once per route a record
// points at yields exactly the claim set of claiming for every record,
// and a route no record points at claims nothing.
func TestObserveRecordsClaimsPerRecord(t *testing.T) {
	b := &proto.RecordBatch{Host: "h0"}
	for _, rt := range []proto.Route{
		{Kind: proto.ToRMesh, DstHost: "h1", DstDev: "d1", ProbePath: []topo.LinkID{1, 2}, AckPath: []topo.LinkID{3}},
		{Kind: proto.ServiceTracing, DstHost: "h2", DstDev: "d2", ProbePath: []topo.LinkID{4}},
		{Kind: proto.InterToR, DstDev: "d3", AckPath: []topo.LinkID{5, 12}},
		{Kind: proto.ToRMesh, DstHost: "h9", DstDev: "d9", ProbePath: []topo.LinkID{99}},
	} {
		b.AddRoute(rt)
	}
	for i, ri := range []int32{0, 2, 0, 1, 1, 2} {
		b.Append(ri, uint64(i), 0, 0, 0, 0, 0, 0)
	}

	n := &Node{pendingCover: make(map[proto.CoverClaim]bool)}
	n.observeRecords(b)

	want := make(map[proto.CoverClaim]bool)
	claim := func(entity string, class analyzer.ProblemKind) {
		want[proto.CoverClaim{Entity: entity, Class: int(class)}] = true
	}
	for i := 0; i < b.Len(); i++ {
		r := b.ResultAt(i)
		if r.DstHost != "" {
			claim("host:"+string(r.DstHost), analyzer.ProblemHostDown)
			claim("host:"+string(r.DstHost), analyzer.ProblemHighProcDelay)
		}
		if r.DstDev != "" {
			claim("dev:"+string(r.DstDev), analyzer.ProblemHighRTT)
			if r.Kind == proto.ToRMesh {
				claim("dev:"+string(r.DstDev), analyzer.ProblemRNIC)
			}
		}
		if r.Kind == proto.ServiceTracing {
			claim("service", analyzer.ProblemHighRTT)
		}
		for _, path := range [][]topo.LinkID{r.ProbePath, r.AckPath} {
			for _, l := range path {
				claim(fmt.Sprintf("link:%d", int(l)), analyzer.ProblemSwitchLink)
			}
		}
	}
	if !reflect.DeepEqual(n.pendingCover, want) {
		t.Fatalf("claims %v, want %v", n.pendingCover, want)
	}
}
