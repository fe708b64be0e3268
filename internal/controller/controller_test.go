package controller

import (
	"testing"

	"rpingmesh/internal/ecmp"
	"rpingmesh/internal/proto"
	"rpingmesh/internal/rnic"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

func buildClos(t testing.TB) *topo.Topology {
	t.Helper()
	tp, err := topo.BuildClos(topo.ClosConfig{
		Pods: 2, ToRsPerPod: 2, AggsPerPod: 2, Spines: 4,
		HostsPerToR: 2, RNICsPerHost: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestRegisterAndLookup(t *testing.T) {
	tp := buildClos(t)
	eng := sim.New(1)
	c := New(eng, tp, Config{})
	id := tp.AllRNICs()[0]
	r := tp.RNICs[id]
	c.Register([]proto.RNICInfo{{Dev: id, Host: r.Host, ToR: r.ToR, IP: r.IP, GID: r.GID, QPN: 123}})
	info, ok := c.Lookup(r.IP)
	if !ok || info.QPN != 123 || info.Dev != id {
		t.Fatalf("Lookup = %+v, %v", info, ok)
	}
	if qpn, ok := c.CurrentQPN(id); !ok || qpn != 123 {
		t.Fatalf("CurrentQPN = %v, %v", qpn, ok)
	}
	// Re-registration (Agent restart) updates the QPN.
	c.Register([]proto.RNICInfo{{Dev: id, Host: r.Host, ToR: r.ToR, IP: r.IP, GID: r.GID, QPN: 456}})
	if qpn, _ := c.CurrentQPN(id); qpn != 456 {
		t.Fatalf("QPN after restart = %v", qpn)
	}
	if c.Registered() != 1 {
		t.Fatalf("Registered = %d", c.Registered())
	}
	if _, ok := c.Lookup(tp.RNICs[tp.AllRNICs()[1]].IP); ok {
		t.Fatal("Lookup of unregistered RNIC succeeded")
	}
}

func TestToRMeshPinglists(t *testing.T) {
	tp := buildClos(t)
	eng := sim.New(1)
	c := New(eng, tp, Config{})
	registerAllSimple(c, tp)

	host := tp.AllHosts()[0]
	lists := c.Pinglists(host)
	var tor []proto.Pinglist
	for _, pl := range lists {
		if pl.Kind == proto.ToRMesh {
			tor = append(tor, pl)
		}
	}
	// One ToR-mesh list per RNIC on the host.
	if len(tor) != len(tp.Hosts[host].RNICs) {
		t.Fatalf("ToR-mesh lists = %d, want %d", len(tor), len(tp.Hosts[host].RNICs))
	}
	for _, pl := range tor {
		// Peers: all RNICs under the same ToR except self. 2 hosts x 2
		// RNICs = 4 per ToR, so 3 peers.
		if len(pl.Targets) != 3 {
			t.Fatalf("ToR-mesh targets = %d, want 3", len(pl.Targets))
		}
		// 10 pps.
		if pl.Interval != 100*sim.Millisecond {
			t.Fatalf("ToR-mesh interval = %v, want 100ms", pl.Interval)
		}
		src := tp.RNICs[pl.Src]
		for _, tgt := range pl.Targets {
			if tgt.Dst.Dev == pl.Src {
				t.Fatal("pinglist targets self")
			}
			if tp.RNICs[tgt.Dst.Dev].ToR != src.ToR {
				t.Fatal("ToR-mesh target crosses ToRs")
			}
		}
	}
}

func TestInterToRPinglists(t *testing.T) {
	tp := buildClos(t)
	eng := sim.New(1)
	c := New(eng, tp, Config{})
	registerAllSimple(c, tp)

	// All inter-ToR tuples of a ToR must originate under it and target
	// other ToRs; the count must satisfy Equation 1 for the worst-case N.
	tor := tp.ToRs()[0]
	n := 0
	for _, other := range tp.ToRs() {
		if other != tor {
			if p := tp.ParallelPaths(tor, other); p > n {
				n = p
			}
		}
	}
	wantK := ecmp.TuplesForCoverage(n, 0.99)
	if got := len(c.interToR[tor]); got != wantK {
		t.Fatalf("tuples = %d, want %d (Eq 1, N=%d)", got, wantK, n)
	}

	seen := 0
	for _, host := range tp.AllHosts() {
		for _, pl := range c.Pinglists(host) {
			if pl.Kind != proto.InterToR {
				continue
			}
			src := tp.RNICs[pl.Src]
			if src.ToR != tor {
				continue
			}
			seen += len(pl.Targets)
			for _, tgt := range pl.Targets {
				if tp.RNICs[tgt.Dst.Dev].ToR == tor {
					t.Fatal("inter-ToR target under same ToR")
				}
				if tgt.SrcPort < 1024 {
					t.Fatalf("bad source port %d", tgt.SrcPort)
				}
			}
			if pl.Interval <= 0 {
				t.Fatal("non-positive interval")
			}
		}
	}
	if seen != wantK {
		t.Fatalf("aggregated targets = %d, want %d", seen, wantK)
	}
}

func TestInterToRRateMeetsTarget(t *testing.T) {
	tp := buildClos(t)
	eng := sim.New(1)
	c := New(eng, tp, Config{TargetLinkPPS: 10})
	registerAllSimple(c, tp)

	// Aggregate probe rate per ToR must be >= 10 pps x uplinks, so that
	// even a perfectly even ECMP spread gives every uplink >= 10 pps.
	for _, tor := range tp.ToRs() {
		rate := 0.0
		for _, host := range tp.AllHosts() {
			for _, pl := range c.Pinglists(host) {
				if pl.Kind == proto.InterToR && tp.RNICs[pl.Src].ToR == tor {
					rate += 1 / pl.Interval.Seconds()
				}
			}
		}
		want := 10.0 * float64(len(tp.Uplinks(tor)))
		if rate < want*0.99 {
			t.Fatalf("ToR %s aggregate rate %.1f pps < %.1f", tor, rate, want)
		}
	}
}

func TestPinglistsResolveLatestQPN(t *testing.T) {
	tp := buildClos(t)
	eng := sim.New(1)
	c := New(eng, tp, Config{})
	registerAllSimple(c, tp)
	host := tp.AllHosts()[0]
	target := firstToRMeshTarget(t, c, host)

	// Restart the target's agent: new QPN must appear at next pull.
	r := tp.RNICs[target.Dst.Dev]
	c.Register([]proto.RNICInfo{{Dev: target.Dst.Dev, Host: r.Host, ToR: r.ToR, IP: r.IP, GID: r.GID, QPN: 9999}})
	got := false
	for _, pl := range c.Pinglists(host) {
		for _, tgt := range pl.Targets {
			if tgt.Dst.Dev == target.Dst.Dev && tgt.Dst.QPN == 9999 {
				got = true
			}
		}
	}
	if !got {
		t.Fatal("pinglist did not pick up restarted QPN")
	}
}

func firstToRMeshTarget(t *testing.T, c *Controller, host topo.HostID) proto.PingTarget {
	t.Helper()
	for _, pl := range c.Pinglists(host) {
		if pl.Kind == proto.ToRMesh && len(pl.Targets) > 0 {
			return pl.Targets[0]
		}
	}
	t.Fatal("no ToR-mesh targets")
	return proto.PingTarget{}
}

func TestUnregisteredTargetsSkipped(t *testing.T) {
	tp := buildClos(t)
	eng := sim.New(1)
	c := New(eng, tp, Config{})
	// Register only the first host's RNICs.
	host := tp.AllHosts()[0]
	var infos []proto.RNICInfo
	for _, id := range tp.Hosts[host].RNICs {
		r := tp.RNICs[id]
		infos = append(infos, proto.RNICInfo{Dev: id, Host: r.Host, ToR: r.ToR, IP: r.IP, GID: r.GID, QPN: 1})
	}
	c.Register(infos)
	for _, pl := range c.Pinglists(host) {
		for _, tgt := range pl.Targets {
			if _, ok := c.CurrentQPN(tgt.Dst.Dev); !ok {
				t.Fatal("pinglist contains unregistered target")
			}
		}
	}
}

func TestPinglistsUnknownHost(t *testing.T) {
	tp := buildClos(t)
	c := New(sim.New(1), tp, Config{})
	if got := c.Pinglists("nope"); got != nil {
		t.Fatalf("Pinglists(unknown) = %v", got)
	}
}

func TestRotationChangesTuples(t *testing.T) {
	tp := buildClos(t)
	eng := sim.New(1)
	c := New(eng, tp, Config{RotateFraction: 0.5})
	registerAllSimple(c, tp)
	before := collectTuples(c, tp)
	c.RotateInterToR()
	after := collectTuples(c, tp)
	if len(before) != len(after) {
		t.Fatalf("rotation changed tuple count: %d -> %d", len(before), len(after))
	}
	changed := 0
	for i := range before {
		if before[i] != after[i] {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("rotation changed nothing")
	}
	if changed == len(before) {
		t.Fatal("rotation replaced everything (should be fractional)")
	}
}

func collectTuples(c *Controller, tp *topo.Topology) []tupleSkeleton {
	var out []tupleSkeleton
	for _, tor := range tp.ToRs() {
		out = append(out, c.interToR[tor]...)
	}
	return out
}

func TestRailModePinglists(t *testing.T) {
	tp, err := topo.BuildRailOptimized(topo.RailConfig{Hosts: 4, Rails: 4, Spines: 4})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New(1)
	c := New(eng, tp, Config{})
	registerAllSimple(c, tp)
	host := tp.AllHosts()[0]
	sawInter := false
	for _, pl := range c.Pinglists(host) {
		if pl.Kind != proto.InterToR {
			continue
		}
		sawInter = true
		for _, tgt := range pl.Targets {
			// Rail mode: inter-"ToR" targets are the host's own NICs on
			// other rails (§7.4).
			if tp.RNICs[tgt.Dst.Dev].Host != tp.RNICs[pl.Src].Host {
				t.Fatalf("rail inter-ToR target %s not on source host", tgt.Dst.Dev)
			}
			if tgt.Dst.Dev == pl.Src {
				t.Fatal("rail target is the source itself")
			}
		}
	}
	if !sawInter {
		t.Fatal("no rail inter-ToR pinglists")
	}
}

func registerAllSimple(c *Controller, tp *topo.Topology) {
	var infos []proto.RNICInfo
	for i, id := range tp.AllRNICs() {
		r := tp.RNICs[id]
		infos = append(infos, proto.RNICInfo{
			Dev: id, Host: r.Host, ToR: r.ToR, IP: r.IP, GID: r.GID, QPN: rnic.QPN(100 + i),
		})
	}
	c.Register(infos)
}

// No single RNIC is told to probe faster than its budget (§6: <150 pps),
// even when a ToR has very few RNICs to spread its aggregate rate over.
func TestPerRNICRateCap(t *testing.T) {
	// 1 host x 1 RNIC per ToR: the lone RNIC would otherwise carry the
	// whole ToR's inter-ToR rate.
	tp, err := topo.BuildClos(topo.ClosConfig{
		Pods: 2, ToRsPerPod: 2, AggsPerPod: 4, Spines: 8,
		HostsPerToR: 1, RNICsPerHost: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := New(sim.New(1), tp, Config{TargetLinkPPS: 100, MaxRNICPPS: 150, ToRMeshPPS: 10})
	registerAllSimple(c, tp)
	for _, host := range tp.AllHosts() {
		for _, pl := range c.Pinglists(host) {
			if pl.Kind != proto.InterToR {
				continue
			}
			// A pinglist fires one probe per Interval (round-robin over
			// its targets), so its rate is 1/Interval.
			rate := 1 / pl.Interval.Seconds()
			if rate > 150-10+0.01 {
				t.Fatalf("RNIC %s told to probe at %.0f pps", pl.Src, rate)
			}
		}
	}
}

// stablePort is deterministic and within the dynamic range.
func TestStablePort(t *testing.T) {
	tp := buildClos(t)
	c := New(sim.New(1), tp, Config{})
	a, b := tp.AllRNICs()[0], tp.AllRNICs()[1]
	p1 := c.stablePort(a, b)
	p2 := c.stablePort(a, b)
	if p1 != p2 {
		t.Fatal("stablePort not stable")
	}
	if p1 < 1024 {
		t.Fatalf("port %d in reserved range", p1)
	}
	if c.stablePort(b, a) == p1 {
		// Directionality is allowed but both directions colliding on the
		// exact same port for EVERY pair would suggest a broken hash; one
		// pair matching is fine, so only check a few pairs differ.
		diff := false
		ids := tp.AllRNICs()
		for i := 0; i+1 < len(ids) && !diff; i += 2 {
			if c.stablePort(ids[i], ids[i+1]) != c.stablePort(ids[i+1], ids[i]) {
				diff = true
			}
		}
		if !diff {
			t.Fatal("stablePort ignores direction entirely")
		}
	}
}
