package topo

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

func smallClos(t testing.TB) *Topology {
	t.Helper()
	tp, err := BuildClos(ClosConfig{
		Pods: 2, ToRsPerPod: 2, AggsPerPod: 2, Spines: 4,
		HostsPerToR: 2, RNICsPerHost: 2,
	})
	if err != nil {
		t.Fatalf("BuildClos: %v", err)
	}
	return tp
}

func fixedHasher(choice int) Hasher {
	return HasherFunc(func(sw DeviceID, n int) int { return choice % n })
}

func randomHasher(rng *rand.Rand) Hasher {
	return HasherFunc(func(sw DeviceID, n int) int { return rng.Intn(n) })
}

func TestBuildClosCounts(t *testing.T) {
	tp := smallClos(t)
	// 2 pods x 2 tors x 2 hosts x 2 rnics = 16 RNICs, 8 hosts.
	if got := len(tp.RNICs); got != 16 {
		t.Fatalf("RNICs = %d, want 16", got)
	}
	if got := len(tp.Hosts); got != 8 {
		t.Fatalf("Hosts = %d, want 8", got)
	}
	// Switches: 4 tors + 4 aggs + 4 spines.
	if got := len(tp.Switches); got != 12 {
		t.Fatalf("Switches = %d, want 12", got)
	}
	// Cables: 16 host + (4 tors x 2 aggs)=8 + (4 aggs x 2 spines-per-plane)=8.
	if got := tp.cables; got != 32 {
		t.Fatalf("Cables = %d, want 32", got)
	}
	if got := len(tp.Links); got != 64 {
		t.Fatalf("Links = %d, want 64 (2 per cable)", got)
	}
	if err := tp.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestBuildClosDefaults(t *testing.T) {
	tp, err := BuildClos(ClosConfig{Pods: 1, ToRsPerPod: 1, AggsPerPod: 1, HostsPerToR: 1})
	if err != nil {
		t.Fatalf("BuildClos defaults: %v", err)
	}
	if len(tp.RNICs) != 1 {
		t.Fatalf("RNICsPerHost default should be 1, got %d RNICs", len(tp.RNICs))
	}
	for _, l := range tp.Links {
		if l.CapacityGbps != 400 {
			t.Fatalf("default capacity = %v, want 400", l.CapacityGbps)
		}
	}
}

func TestBuildClosRejectsBadConfig(t *testing.T) {
	cases := []ClosConfig{
		{},
		{Pods: 1, ToRsPerPod: 1, AggsPerPod: 2, Spines: 3, HostsPerToR: 1}, // spines not multiple of aggs
		{Pods: -1, ToRsPerPod: 1, AggsPerPod: 1, HostsPerToR: 1},
	}
	for i, c := range cases {
		if _, err := BuildClos(c); err == nil {
			t.Errorf("case %d: expected error for %+v", i, c)
		}
	}
}

func TestUniqueIPs(t *testing.T) {
	tp := smallClos(t)
	seen := map[string]bool{}
	for _, r := range tp.RNICs {
		if seen[r.IP.String()] {
			t.Fatalf("duplicate IP %v", r.IP)
		}
		seen[r.IP.String()] = true
		if r.GID == "" {
			t.Fatalf("RNIC %s has empty GID", r.ID)
		}
	}
}

func TestRNICIPsAreDistinct(t *testing.T) {
	tp := smallClos(t)
	seen := map[netip.Addr]DeviceID{}
	for _, id := range tp.AllRNICs() {
		ip := tp.RNICs[id].IP
		if other, dup := seen[ip]; dup {
			t.Fatalf("%s and %s share IP %v", other, id, ip)
		}
		seen[ip] = id
	}
}

func TestRNICsUnderToR(t *testing.T) {
	tp := smallClos(t)
	total := 0
	for _, tor := range tp.ToRs() {
		rs := tp.RNICsUnderToR(tor)
		if len(rs) != 4 { // 2 hosts x 2 rnics
			t.Fatalf("ToR %s has %d RNICs, want 4", tor, len(rs))
		}
		total += len(rs)
		for _, r := range rs {
			if tp.RNICs[r].ToR != tor {
				t.Fatalf("RNIC %s listed under wrong ToR", r)
			}
		}
	}
	if total != len(tp.RNICs) {
		t.Fatalf("ToR partition covers %d of %d RNICs", total, len(tp.RNICs))
	}
}

func TestRouteIntraToR(t *testing.T) {
	tp := smallClos(t)
	tor := tp.ToRs()[0]
	rs := tp.RNICsUnderToR(tor)
	path, err := tp.Route(rs[0], rs[1], fixedHasher(0))
	if err != nil {
		t.Fatalf("Route: %v", err)
	}
	// RNIC -> ToR -> RNIC: exactly 2 links, only involving the ToR.
	if len(path) != 2 {
		t.Fatalf("intra-ToR path length = %d, want 2", len(path))
	}
	if tp.Links[path[0]].To != tor || tp.Links[path[1]].From != tor {
		t.Fatalf("intra-ToR path does not pivot at ToR: %v", pathString(tp, path))
	}
}

func TestRouteIntraPod(t *testing.T) {
	tp := smallClos(t)
	// tor-0-0 and tor-0-1 are in pod 0.
	a := tp.RNICsUnderToR("tor-0-0")[0]
	b := tp.RNICsUnderToR("tor-0-1")[0]
	path, err := tp.Route(a, b, fixedHasher(0))
	if err != nil {
		t.Fatalf("Route: %v", err)
	}
	// RNIC -> ToR -> Agg -> ToR -> RNIC = 4 links.
	if len(path) != 4 {
		t.Fatalf("intra-pod path length = %d, want 4: %v", len(path), pathString(tp, path))
	}
	mid := tp.Links[path[1]].To
	if tp.Switches[mid].Tier != TierAgg {
		t.Fatalf("intra-pod path pivot %s is not an agg", mid)
	}
}

func TestRouteCrossPod(t *testing.T) {
	tp := smallClos(t)
	a := tp.RNICsUnderToR("tor-0-0")[0]
	b := tp.RNICsUnderToR("tor-1-0")[0]
	for choice := 0; choice < 4; choice++ {
		path, err := tp.Route(a, b, fixedHasher(choice))
		if err != nil {
			t.Fatalf("Route(choice=%d): %v", choice, err)
		}
		// RNIC -> ToR -> Agg -> Spine -> Agg -> ToR -> RNIC = 6 links.
		if len(path) != 6 {
			t.Fatalf("cross-pod path length = %d, want 6: %v", len(path), pathString(tp, path))
		}
		top := tp.Links[path[2]].To
		if tp.Switches[top].Tier != TierSpine {
			t.Fatalf("cross-pod path apex %s is not a spine", top)
		}
	}
}

func TestRouteEndpointsAndContinuity(t *testing.T) {
	tp := smallClos(t)
	rng := rand.New(rand.NewSource(5))
	ids := tp.AllRNICs()
	for i := 0; i < 200; i++ {
		a, b := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		if a == b {
			continue
		}
		path, err := tp.Route(a, b, randomHasher(rng))
		if err != nil {
			t.Fatalf("Route(%s,%s): %v", a, b, err)
		}
		if tp.Links[path[0]].From != a || tp.Links[path[len(path)-1]].To != b {
			t.Fatalf("path endpoints wrong: %v", pathString(tp, path))
		}
		for j := 1; j < len(path); j++ {
			if tp.Links[path[j]].From != tp.Links[path[j-1]].To {
				t.Fatalf("discontinuous path: %v", pathString(tp, path))
			}
		}
	}
}

func TestRouteSelfFails(t *testing.T) {
	tp := smallClos(t)
	id := tp.AllRNICs()[0]
	if _, err := tp.Route(id, id, fixedHasher(0)); err == nil {
		t.Fatal("Route to self succeeded")
	}
	if _, err := tp.Route("nope", id, fixedHasher(0)); err == nil {
		t.Fatal("Route from unknown RNIC succeeded")
	}
	if _, err := tp.Route(id, "nope", fixedHasher(0)); err == nil {
		t.Fatal("Route to unknown RNIC succeeded")
	}
}

func TestParallelPathsIntraPod(t *testing.T) {
	tp := smallClos(t)
	if n := tp.ParallelPaths("tor-0-0", "tor-0-1"); n != 2 {
		t.Fatalf("intra-pod parallel paths = %d, want 2 (aggs per pod)", n)
	}
	// Cross-pod: each of 2 aggs fans to 2 spines = 4.
	if n := tp.ParallelPaths("tor-0-0", "tor-1-0"); n != 4 {
		t.Fatalf("cross-pod parallel paths = %d, want 4", n)
	}
	if n := tp.ParallelPaths("tor-0-0", "tor-0-0"); n != 0 {
		t.Fatalf("self parallel paths = %d, want 0", n)
	}
}

// Property: across many random flows, every cross-ToR hash choice produces
// a valid path, and the set of distinct paths between a fixed pair is
// bounded by ParallelPaths.
func TestPropertyDistinctPathsBounded(t *testing.T) {
	tp := smallClos(t)
	a := tp.RNICsUnderToR("tor-0-0")[0]
	b := tp.RNICsUnderToR("tor-1-0")[0]
	n := tp.ParallelPaths("tor-0-0", "tor-1-0")
	rng := rand.New(rand.NewSource(11))
	distinct := map[string]bool{}
	for i := 0; i < 500; i++ {
		path, err := tp.Route(a, b, randomHasher(rng))
		if err != nil {
			t.Fatal(err)
		}
		distinct[pathString(tp, path)] = true
	}
	if len(distinct) > n {
		t.Fatalf("observed %d distinct paths, ParallelPaths says %d", len(distinct), n)
	}
	if len(distinct) < n {
		t.Fatalf("random probing only found %d of %d paths", len(distinct), n)
	}
}

func TestBuildRailOptimized(t *testing.T) {
	tp, err := BuildRailOptimized(RailConfig{Hosts: 4, Rails: 2, Spines: 2})
	if err != nil {
		t.Fatalf("BuildRailOptimized: %v", err)
	}
	if !tp.Rail {
		t.Fatal("Rail flag not set")
	}
	if len(tp.RNICs) != 8 {
		t.Fatalf("RNICs = %d, want 8", len(tp.RNICs))
	}
	// NIC i of each host must attach to rail-i.
	for _, r := range tp.RNICs {
		want := railID(r.Index)
		if r.ToR != want {
			t.Fatalf("RNIC %s on rail switch %s, want %s", r.ID, r.ToR, want)
		}
	}
	// Same-host inter-rail traffic must traverse a spine (the paper's
	// Fig 12 red-arrow path).
	h := tp.Hosts[tp.AllHosts()[0]]
	path, err := tp.Route(h.RNICs[0], h.RNICs[1], fixedHasher(0))
	if err != nil {
		t.Fatalf("Route: %v", err)
	}
	sawSpine := false
	for _, l := range path {
		if sw, ok := tp.Switches[tp.Links[l].To]; ok && sw.Tier == TierSpine {
			sawSpine = true
		}
	}
	if !sawSpine {
		t.Fatalf("inter-rail path avoided spines: %v", pathString(tp, path))
	}
	if n := tp.ParallelPaths(railID(0), railID(1)); n != 2 {
		t.Fatalf("rail parallel paths = %d, want 2 (spines)", n)
	}
}

func TestBuildRailRejectsBadConfig(t *testing.T) {
	if _, err := BuildRailOptimized(RailConfig{}); err == nil {
		t.Fatal("expected error for empty RailConfig")
	}
}

func TestTierString(t *testing.T) {
	if TierToR.String() != "tor" || TierAgg.String() != "agg" || TierSpine.String() != "spine" {
		t.Fatal("Tier.String mismatch")
	}
	if Tier(9).String() == "" {
		t.Fatal("unknown tier should still stringify")
	}
}

// Property: routing is a pure function of the hash choices.
func TestPropertyRouteDeterminism(t *testing.T) {
	tp := smallClos(t)
	ids := tp.AllRNICs()
	f := func(seed int64, ai, bi uint8) bool {
		a := ids[int(ai)%len(ids)]
		b := ids[int(bi)%len(ids)]
		if a == b {
			return true
		}
		p1, err1 := tp.Route(a, b, randomHasher(rand.New(rand.NewSource(seed))))
		p2, err2 := tp.Route(a, b, randomHasher(rand.New(rand.NewSource(seed))))
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		if len(p1) != len(p2) {
			return false
		}
		for i := range p1 {
			if p1[i] != p2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func pathString(tp *Topology, path []LinkID) string {
	s := ""
	for _, l := range path {
		s += string(tp.Links[l].From) + ">"
	}
	if len(path) > 0 {
		s += string(tp.Links[path[len(path)-1]].To)
	}
	return s
}
