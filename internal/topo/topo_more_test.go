package topo

import (
	"math/rand"
	"testing"
)

// Path lengths are fixed by the tier distance: 2 (intra-ToR), 4
// (intra-pod), 6 (cross-pod) in a 3-tier CLOS.
func TestPathLengthsByDistance(t *testing.T) {
	tp := smallClos(t)
	rng := rand.New(rand.NewSource(4))
	ids := tp.AllRNICs()
	for i := 0; i < 300; i++ {
		a := ids[rng.Intn(len(ids))]
		b := ids[rng.Intn(len(ids))]
		if a == b {
			continue
		}
		path, err := tp.Route(a, b, randomHasher(rng))
		if err != nil {
			t.Fatal(err)
		}
		ra, rb := tp.RNICs[a], tp.RNICs[b]
		var want int
		switch {
		case ra.ToR == rb.ToR:
			want = 2
		case tp.Switches[ra.ToR].Pod == tp.Switches[rb.ToR].Pod:
			want = 4
		default:
			want = 6
		}
		if len(path) != want {
			t.Fatalf("%s->%s path length %d, want %d", a, b, len(path), want)
		}
	}
}

// Every link's reverse shares its cable, and cables partition the links
// exactly two-to-one.
func TestCablePairing(t *testing.T) {
	tp := smallClos(t)
	byCable := map[int][]LinkID{}
	for _, l := range tp.Links {
		byCable[l.Cable] = append(byCable[l.Cable], l.ID)
	}
	if len(byCable) != tp.cables {
		t.Fatalf("cable count mismatch: %d vs %d", len(byCable), tp.cables)
	}
	for cable, links := range byCable {
		if len(links) != 2 {
			t.Fatalf("cable %d has %d directed links", cable, len(links))
		}
		a, b := tp.Links[links[0]], tp.Links[links[1]]
		if a.From != b.To || a.To != b.From {
			t.Fatalf("cable %d links are not reverses: %+v %+v", cable, a, b)
		}
	}
}

// Validate rejects structurally broken topologies.
func TestValidateCatchesCorruption(t *testing.T) {
	// Missing reverse link.
	tp := smallClos(t)
	l := *tp.Links[0]
	l.ID = LinkID(len(tp.Links))
	l.From, l.To = "ghost-a", "ghost-b"
	tp.Links = append(tp.Links, &l)
	if err := tp.Validate(); err == nil {
		t.Fatal("one-way ghost link passed validation")
	}

	// Zero-capacity link.
	tp2 := smallClos(t)
	tp2.Links[0].CapacityGbps = 0
	if err := tp2.Validate(); err == nil {
		t.Fatal("zero-capacity link passed validation")
	}

	// RNIC pointing at a host that does not list it.
	tp3 := smallClos(t)
	id := tp3.AllRNICs()[0]
	tp3.RNICs[id].Host = tp3.AllHosts()[len(tp3.AllHosts())-1]
	if tp3.RNICs[id].Host == "host-0-0" {
		t.Skip("victim is on the reference host")
	}
	if err := tp3.Validate(); err == nil {
		t.Fatal("orphaned RNIC passed validation")
	}
}

// Uplinks of an RNIC is exactly its ToR; of a spine, nothing.
func TestUplinkShape(t *testing.T) {
	tp := smallClos(t)
	for _, id := range tp.AllRNICs() {
		ups := tp.Uplinks(id)
		if len(ups) != 1 || ups[0] != tp.RNICs[id].ToR {
			t.Fatalf("RNIC %s uplinks = %v", id, ups)
		}
	}
	if ups := tp.Uplinks("spine-0"); len(ups) != 0 {
		t.Fatalf("spine has uplinks: %v", ups)
	}
	for _, tor := range tp.ToRs() {
		if len(tp.Uplinks(tor)) == 0 {
			t.Fatalf("ToR %s has no uplinks", tor)
		}
	}
}

// Bigger fabric sanity: a 4-pod, 8-spine cluster builds, validates, and
// routes everywhere.
func TestLargerFabric(t *testing.T) {
	tp, err := BuildClos(ClosConfig{
		Pods: 4, ToRsPerPod: 4, AggsPerPod: 4, Spines: 8,
		HostsPerToR: 4, RNICsPerHost: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 4x4x4x4 = 256 RNICs.
	if len(tp.RNICs) != 256 {
		t.Fatalf("RNICs = %d", len(tp.RNICs))
	}
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	ids := tp.AllRNICs()
	for i := 0; i < 100; i++ {
		a, b := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		if a == b {
			continue
		}
		if _, err := tp.Route(a, b, randomHasher(rng)); err != nil {
			t.Fatalf("route %s->%s: %v", a, b, err)
		}
	}
	// Cross-pod parallel paths: each of 4 aggs fans to 2 spines.
	if n := tp.ParallelPaths("tor-0-0", "tor-1-0"); n != 8 {
		t.Fatalf("cross-pod N = %d, want 8", n)
	}
}

func BenchmarkRouteCrossPod(b *testing.B) {
	tp, err := BuildClos(ClosConfig{
		Pods: 4, ToRsPerPod: 4, AggsPerPod: 4, Spines: 8,
		HostsPerToR: 4, RNICsPerHost: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	a := tp.RNICsUnderToR("tor-0-0")[0]
	dst := tp.RNICsUnderToR("tor-3-0")[0]
	h := fixedHasher(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tp.Route(a, dst, h); err != nil {
			b.Fatal(err)
		}
	}
}
