package trace

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"rpingmesh/internal/ecmp"
	"rpingmesh/internal/rnic"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/simnet"
	"rpingmesh/internal/topo"
)

type rig struct {
	eng *sim.Engine
	tp  *topo.Topology
	net *simnet.Net
	a   topo.DeviceID
	b   topo.DeviceID
}

func newNet(t testing.TB, cfg topo.ClosConfig) (*sim.Engine, *topo.Topology, *simnet.Net) {
	t.Helper()
	tp, err := topo.BuildClos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New(11)
	net := simnet.New(eng, tp, simnet.Config{})
	for _, id := range tp.AllRNICs() {
		info := tp.RNICs[id]
		net.Register(rnic.NewDevice(eng, net, rnic.Config{ID: id, IP: info.IP, GID: info.GID, Host: info.Host}))
	}
	return eng, tp, net
}

func newRig(t testing.TB) *rig {
	eng, tp, net := newNet(t, topo.ClosConfig{Pods: 2, ToRsPerPod: 2, AggsPerPod: 2, Spines: 2, HostsPerToR: 1, RNICsPerHost: 1})
	return &rig{
		eng: eng, tp: tp, net: net,
		a: tp.RNICsUnderToR("tor-0-0")[0],
		b: tp.RNICsUnderToR("tor-1-0")[0],
	}
}

func (r *rig) tuple(port uint16) ecmp.FiveTuple {
	return ecmp.RoCETuple(r.tp.RNICs[r.a].IP, r.tp.RNICs[r.b].IP, port)
}

// host returns the owning host of an RNIC (the trace origin).
func (r *rig) host(dev topo.DeviceID) topo.HostID { return r.tp.RNICs[dev].Host }

// --- oracle --------------------------------------------------------------
//
// The hop-building walk the tracers used to run, kept as the reference
// the route-cache walk is checked against: it routes through topo.Route
// afresh (not the fabric's cache) and reports every hop.

// oracleHop is one step of an oracle trace.
type oracleHop struct {
	Link      topo.LinkID
	Device    topo.DeviceID // "" when the hop did not answer
	Responded bool
}

// oracleResult is an oracle trace.
type oracleResult struct {
	Hops     []oracleHop
	Complete bool
}

// Links returns the directed links of the responded hops, in order.
func (r oracleResult) Links() []topo.LinkID {
	out := make([]topo.LinkID, 0, len(r.Hops))
	for _, h := range r.Hops {
		if h.Responded {
			out = append(out, h.Link)
		}
	}
	return out
}

func oracleRoute(net *simnet.Net, src topo.DeviceID, tuple ecmp.FiveTuple) ([]topo.LinkID, bool) {
	dst, ok := net.DeviceByIP(tuple.DstIP)
	if !ok {
		return nil, false
	}
	path, err := net.Topology().Route(src, dst.ID(), tuple.Hasher())
	return path, err == nil
}

// oracleTraceroute is Traceroute's walk, spending t's token buckets.
func oracleTraceroute(t *Traceroute, origin topo.HostID, src topo.DeviceID, tuple ecmp.FiveTuple) (oracleResult, bool) {
	path, ok := oracleRoute(t.net, src, tuple)
	if !ok {
		return oracleResult{}, false
	}
	now := originClock(t.net, origin)
	pod := t.originPod(origin)
	res := oracleResult{Complete: true}
	for _, lid := range path {
		link := t.net.Topology().Links[lid]
		if t.net.LinkDown(lid) {
			res.Complete = false
			break
		}
		hop := oracleHop{Link: lid, Device: link.To}
		if _, isSwitch := t.net.Topology().Switches[link.To]; isSwitch {
			hop.Responded = t.take(pod, link.To, now)
		} else {
			hop.Responded = true
		}
		if !hop.Responded {
			hop.Device = ""
			res.Complete = false
		}
		res.Hops = append(res.Hops, hop)
	}
	return res, true
}

// oracleINT is INT's walk: every hop answers up to a dead link.
func oracleINT(net *simnet.Net, src topo.DeviceID, tuple ecmp.FiveTuple) (oracleResult, bool) {
	path, ok := oracleRoute(net, src, tuple)
	if !ok {
		return oracleResult{}, false
	}
	res := oracleResult{Complete: true}
	for _, lid := range path {
		if net.LinkDown(lid) {
			res.Complete = false
			break
		}
		res.Hops = append(res.Hops, oracleHop{Link: lid, Device: net.Topology().Links[lid].To, Responded: true})
	}
	return res, true
}

// oracleWant is what TracePath must return for an oracle trace.
func oracleWant(res oracleResult, ok bool) []topo.LinkID {
	if !ok || !res.Complete {
		return nil
	}
	return res.Links()
}

// --- tests ---------------------------------------------------------------

func TestTracerouteCompletePath(t *testing.T) {
	r := newRig(t)
	tr := NewTraceroute(r.eng, r.net)
	links := tr.TracePath(r.host(r.a), r.a, r.tuple(1))
	if links == nil {
		t.Fatal("fresh trace incomplete")
	}
	want, _ := r.net.PathOf(r.a, r.tuple(1))
	if !slices.Equal(links, want) {
		t.Fatalf("links = %v, want %v", links, want)
	}
	// Final hop enters the destination RNIC.
	if to := r.tp.Links[links[len(links)-1]].To; to != r.b {
		t.Fatalf("last hop enters %v, want %v", to, r.b)
	}
}

// A re-trace returns the fabric's cached route itself: the same slice,
// full-capped so no holder can append into it.
func TestRetraceKeepsPathIdentity(t *testing.T) {
	r := newRig(t)
	for _, tr := range []PathTracer{NewTraceroute(r.eng, r.net), NewINT(r.eng, r.net)} {
		first := tr.TracePath(r.host(r.a), r.a, r.tuple(4))
		r.eng.RunUntil(r.eng.Now() + 10*sim.Second)
		again := tr.TracePath(r.host(r.a), r.a, r.tuple(4))
		if first == nil || again == nil || &first[0] != &again[0] || len(first) != len(again) {
			t.Fatalf("%T: re-trace returned another slice", tr)
		}
		if cap(again) != len(again) {
			t.Fatalf("%T: cached path has spare capacity %d > %d", tr, cap(again), len(again))
		}
	}
}

func TestTracerouteRateLimiting(t *testing.T) {
	r := newRig(t)
	tr := NewTraceroute(r.eng, r.net)
	tr.PerSwitchRPS = 10
	tr.Burst = 2
	// Burst of traces through the same first switch: tokens run out.
	incomplete := 0
	for i := 0; i < 10; i++ {
		if tr.TracePath(r.host(r.a), r.a, r.tuple(1)) == nil {
			incomplete++
		}
	}
	if incomplete == 0 {
		t.Fatal("rate limiter never kicked in")
	}
	// After a second of virtual time, tokens refill.
	r.eng.RunUntil(r.eng.Now() + sim.Second)
	if tr.TracePath(r.host(r.a), r.a, r.tuple(1)) == nil {
		t.Fatal("trace incomplete after refill")
	}
}

func TestTracerouteStopsAtDownLink(t *testing.T) {
	r := newRig(t)
	tr := NewTraceroute(r.eng, r.net)
	path, _ := r.net.PathOf(r.a, r.tuple(1))
	r.net.SetLinkDown(path[2], true)
	if links := tr.TracePath(r.host(r.a), r.a, r.tuple(1)); links != nil {
		t.Fatalf("trace across down link reported complete: %v", links)
	}
	// Only the switch before the failure was asked: the one behind the
	// dead link kept its whole burst.
	pod := tr.originPod(r.host(r.a))
	asked := tr.buckets[pod][r.tp.Links[path[1]].To]
	if asked == nil || asked.tokens != tr.Burst-1 {
		t.Fatalf("switch before the failure: %+v", asked)
	}
	if b := tr.buckets[pod][r.tp.Links[path[2]].To]; b != nil {
		t.Fatalf("switch behind the dead link was asked: %+v", b)
	}
}

func TestTracerouteUnknownDestination(t *testing.T) {
	r := newRig(t)
	tr := NewTraceroute(r.eng, r.net)
	bad := r.tuple(1)
	bad.DstIP = bad.SrcIP // self-route fails in topo
	if links := tr.TracePath(r.host(r.a), r.a, bad); links != nil {
		t.Fatalf("trace to self returned %v", links)
	}
}

func TestINTAlwaysComplete(t *testing.T) {
	r := newRig(t)
	it := NewINT(r.eng, r.net)
	// Hammer it: INT has no rate limiter.
	for i := 0; i < 100; i++ {
		if it.TracePath(r.host(r.a), r.a, r.tuple(1)) == nil {
			t.Fatal("INT trace incomplete")
		}
	}
	path, _ := r.net.PathOf(r.a, r.tuple(1))
	r.net.SetLinkDown(path[2], true)
	if it.TracePath(r.host(r.a), r.a, r.tuple(1)) != nil {
		t.Fatal("INT trace across a down link reported complete")
	}
}

func TestResultLinksSkipsUnresponsive(t *testing.T) {
	res := oracleResult{Hops: []oracleHop{
		{Link: 1, Responded: true},
		{Link: 2, Responded: false},
		{Link: 3, Responded: true},
	}}
	links := res.Links()
	if len(links) != 2 || links[0] != 1 || links[1] != 3 {
		t.Fatalf("Links = %v", links)
	}
}

// Both tracers satisfy the PathTracer seam used by the Agent (§7.4).
func TestPathTracerInterface(t *testing.T) {
	r := newRig(t)
	var _ PathTracer = NewTraceroute(r.eng, r.net)
	var _ PathTracer = NewINT(r.eng, r.net)
}

// TestTracerMatchesOracle drives the route-cache tracers and the oracle
// walk with the same random traces: random tuples and origins, links
// going down and up, and a policer small enough that switches run out of
// tokens. Every trace must agree on (path, complete), and the
// Traceroute's token buckets must end equal to the oracle's.
func TestTracerMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		eng, tp, net := newNet(t, topo.ClosConfig{Pods: 2, ToRsPerPod: 2, AggsPerPod: 2, Spines: 2, HostsPerToR: 2, RNICsPerHost: 2})
		rng := rand.New(rand.NewSource(seed))
		tr, ref := NewTraceroute(eng, net), NewTraceroute(eng, net)
		for _, x := range []*Traceroute{tr, ref} {
			x.PerSwitchRPS = 50
			x.Burst = 4
		}
		it := NewINT(eng, net)
		rnics, hosts := tp.AllRNICs(), tp.AllHosts()
		var down []topo.LinkID
		var complete, limited, cut int
		for i := 0; i < 3000; i++ {
			switch rng.Intn(40) {
			case 0:
				l := topo.LinkID(rng.Intn(len(tp.Links)))
				net.SetLinkDown(l, true)
				down = append(down, l)
			case 1:
				if len(down) > 0 {
					net.SetLinkDown(down[0], false)
					down = down[1:]
				}
			case 2:
				eng.RunUntil(eng.Now() + sim.Time(rng.Int63n(int64(200*sim.Millisecond))))
			}
			src, dst := rnics[rng.Intn(len(rnics))], rnics[rng.Intn(len(rnics))]
			tuple := ecmp.RoCETuple(tp.RNICs[src].IP, tp.RNICs[dst].IP, uint16(49152+rng.Intn(64)))
			origin := hosts[rng.Intn(len(hosts))]

			res, ok := oracleTraceroute(ref, origin, src, tuple)
			switch {
			case !ok:
			case res.Complete:
				complete++
			case len(res.Links()) < len(res.Hops):
				limited++
			default:
				cut++
			}
			want := oracleWant(res, ok)
			if got := tr.TracePath(origin, src, tuple); !slices.Equal(got, want) || (got == nil) != (want == nil) {
				t.Fatalf("seed %d trace %d: Traceroute %s→%s = %v, oracle %v", seed, i, src, dst, got, want)
			}
			want = oracleWant(oracleINT(net, src, tuple))
			if got := it.TracePath(origin, src, tuple); !slices.Equal(got, want) || (got == nil) != (want == nil) {
				t.Fatalf("seed %d trace %d: INT %s→%s = %v, oracle %v", seed, i, src, dst, got, want)
			}
		}
		if complete == 0 || limited == 0 || cut == 0 {
			t.Fatalf("seed %d: %d complete, %d rate-limited, %d cut traces: each case must occur", seed, complete, limited, cut)
		}
		if !reflect.DeepEqual(tr.buckets, ref.buckets) {
			t.Fatalf("seed %d: token buckets diverged from the oracle's", seed)
		}
	}
}

// A steady-state re-trace of a cached tuple allocates nothing.
func TestRetraceAllocs(t *testing.T) {
	r := newRig(t)
	tr := NewTraceroute(r.eng, r.net)
	tr.PerSwitchRPS = 1e9
	tr.Burst = 1e9
	it := NewINT(r.eng, r.net)
	tuple := r.tuple(6)
	origin := r.host(r.a)
	var got, gotINT []topo.LinkID
	trace := func() {
		got = tr.TracePath(origin, r.a, tuple)
		gotINT = it.TracePath(origin, r.a, tuple)
	}
	trace() // route cache and token buckets are filled here
	if allocs := testing.AllocsPerRun(100, trace); allocs != 0 {
		t.Fatalf("a re-trace allocates %v times, want 0", allocs)
	}
	if got == nil || gotINT == nil {
		t.Fatal("re-trace incomplete")
	}
}

func BenchmarkTraceroute(b *testing.B) {
	r := newRig(b)
	tr := NewTraceroute(r.eng, r.net)
	tr.PerSwitchRPS = 1e9 // no limiting in the benchmark
	tr.Burst = 1e9
	tuple := r.tuple(5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tr.TracePath(r.host(r.a), r.a, tuple) == nil {
			b.Fatal("trace incomplete")
		}
	}
}

// Rate limiting is per switch: exhausting one switch's budget must not
// block traces through other switches.
func TestRateLimitPerSwitchIsolation(t *testing.T) {
	r := newRig(t)
	tr := NewTraceroute(r.eng, r.net)
	tr.PerSwitchRPS = 1
	tr.Burst = 2
	// Exhaust the budget along a->b.
	for i := 0; i < 10; i++ {
		tr.TracePath(r.host(r.a), r.a, r.tuple(1))
	}
	if tr.TracePath(r.host(r.a), r.a, r.tuple(1)) != nil {
		t.Fatal("budget not exhausted on the hot path")
	}
	pod := tr.originPod(r.host(r.a))
	if b := tr.buckets[pod]["tor-0-0"]; b.tokens >= 1 {
		t.Fatalf("exhausted first switch still has %v tokens", b.tokens)
	}
	// A path entering the fabric at an untouched ToR answers there: the
	// budgets are per switch, not global. (Aggs/spines may be shared with
	// the hot path, so only the first hop is guaranteed fresh.)
	c := r.tp.RNICsUnderToR("tor-0-1")[0]
	d := r.tp.RNICsUnderToR("tor-1-1")[0]
	other := ecmp.RoCETuple(r.tp.RNICs[c].IP, r.tp.RNICs[d].IP, 9)
	tr.TracePath(r.host(c), c, other)
	if b := tr.buckets[tr.originPod(r.host(c))]["tor-0-1"]; b == nil || b.tokens != tr.Burst-1 {
		t.Fatalf("untouched ToR did not answer from a full bucket: %+v", b)
	}
}

// The final host hop never consumes a switch budget.
func TestDestinationHopUnmetered(t *testing.T) {
	r := newRig(t)
	tr := NewTraceroute(r.eng, r.net)
	tr.PerSwitchRPS = 1e9
	tr.Burst = 1e9
	if tr.TracePath(r.host(r.a), r.a, r.tuple(2)) == nil {
		t.Fatal("trace incomplete")
	}
	for pod, byDev := range tr.buckets {
		if b, ok := byDev[r.b]; ok {
			t.Fatalf("destination RNIC metered in pod %d: %+v", pod, b)
		}
	}
}
