package controller

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"rpingmesh/internal/sim"
)

// TestDRRGrantsExactFairness: 2× oversubscribed pool, weights 3:2:1,
// equal demands → grants split exactly by weight.
func TestDRRGrantsExactFairness(t *testing.T) {
	got := DRRGrants([]float64{200, 200, 200}, []int{3, 2, 1}, 300)
	want := []float64{150, 100, 50}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DRR grants = %v, want %v", got, want)
		}
	}
}

func TestDRRGrantsUncontended(t *testing.T) {
	// capacity <= 0 means no pool: full demand.
	if got := DRRGrants([]float64{120, 30}, []int{1, 1}, 0); got[0] != 120 || got[1] != 30 {
		t.Fatalf("capacity 0 grants = %v", got)
	}
	// Capacity covers total demand: full demand, leftover stays idle.
	if got := DRRGrants([]float64{120, 30}, []int{1, 5}, 1000); got[0] != 120 || got[1] != 30 {
		t.Fatalf("uncontended grants = %v", got)
	}
	// Max-min: a small demand is fully met, the rest goes to the big one.
	got := DRRGrants([]float64{500, 10}, []int{1, 1}, 100)
	if got[1] != 10 || got[0] != 90 {
		t.Fatalf("max-min grants = %v, want [90 10]", got)
	}
	// Grants exhaust the pool exactly under contention.
	if got[0]+got[1] != 100 {
		t.Fatalf("granted %v does not exhaust capacity", got)
	}
}

func TestParseTenants(t *testing.T) {
	cfgs, err := ParseTenants("gold:4,silver:2:250.5,bronze:1")
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 3 || cfgs[0] != (TenantConfig{Name: "gold", Weight: 4}) ||
		cfgs[1] != (TenantConfig{Name: "silver", Weight: 2, MaxPPS: 250.5}) ||
		cfgs[2] != (TenantConfig{Name: "bronze", Weight: 1}) {
		t.Fatalf("ParseTenants = %+v", cfgs)
	}
	if cfgs, err := ParseTenants("  "); err != nil || cfgs != nil {
		t.Fatalf("blank flag = %+v, %v", cfgs, err)
	}
	for _, bad := range []string{"gold", "gold:0", "gold:x", "gold:1,gold:2", ":3", "gold:1:-5", "gold:1:nan:extra",
		"gold:4:NaN", "gold:4:+Inf", "gold:4:-Inf", "gold :4,gold:1", " :4"} {
		if _, err := ParseTenants(bad); err == nil {
			t.Fatalf("ParseTenants(%q) accepted", bad)
		}
	}
	// Fields are trimmed around ':' as well as ','.
	cfgs, err = ParseTenants(" gold : 4 : 50 ,silver:2")
	if err != nil || len(cfgs) != 2 || cfgs[0] != (TenantConfig{Name: "gold", Weight: 4, MaxPPS: 50}) {
		t.Fatalf("ParseTenants with spaces = %+v, %v", cfgs, err)
	}
}

// FuzzParseTenants: no input panics, and every accepted config is one the
// scheduler can use — non-empty, trimmed, unique names, Weight ≥ 1 and a
// finite MaxPPS ≥ 0.
func FuzzParseTenants(f *testing.F) {
	for _, s := range []string{"gold:4:NaN", "gold:4:+Inf", "gold :4,gold:1",
		"gold:4,silver:2:250.5,bronze:1", "", "a:1:0x1p3", "a:+1, b:2:1e308"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		cfgs, err := ParseTenants(s)
		if err != nil {
			return
		}
		seen := make(map[string]bool)
		for _, tc := range cfgs {
			if tc.Name == "" || tc.Name != strings.TrimSpace(tc.Name) || seen[tc.Name] {
				t.Fatalf("ParseTenants(%q): bad or repeated name %q in %+v", s, tc.Name, cfgs)
			}
			seen[tc.Name] = true
			if tc.Weight < 1 {
				t.Fatalf("ParseTenants(%q): %q has weight %d", s, tc.Name, tc.Weight)
			}
			if !(tc.MaxPPS >= 0) || math.IsInf(tc.MaxPPS, 0) {
				t.Fatalf("ParseTenants(%q): %q has maxpps %v", s, tc.Name, tc.MaxPPS)
			}
		}
	})
}

// TestEmptyTenantsBitIdenticalPinglists: with no tenants configured the
// scheduler must be entirely out of the path — and with tenants but no
// capacity pool, grants are uncontended so intervals stay untouched.
func TestEmptyTenantsBitIdenticalPinglists(t *testing.T) {
	tp := buildClos(t)
	base := New(sim.New(1), tp, Config{})
	registerAllSimple(base, tp)

	tenanted := New(sim.New(1), tp, Config{
		Tenants:           []TenantConfig{{Name: "a", Weight: 2}, {Name: "b", Weight: 1}},
		TenantCapacityPPS: 0,
	})
	registerAllSimple(tenanted, tp)

	for _, host := range tp.AllHosts() {
		want := base.Pinglists(host)
		got := tenanted.Pinglists(host)
		if len(want) != len(got) {
			t.Fatalf("host %s: %d lists vs %d", host, len(want), len(got))
		}
		for i := range want {
			if want[i].Kind != got[i].Kind || want[i].Src != got[i].Src ||
				want[i].Interval != got[i].Interval || len(want[i].Targets) != len(got[i].Targets) {
				t.Fatalf("host %s list %d diverges: %+v vs %+v", host, i, want[i], got[i])
			}
			for j := range want[i].Targets {
				if want[i].Targets[j] != got[i].Targets[j] {
					t.Fatalf("host %s list %d target %d diverges", host, i, j)
				}
			}
		}
	}
}

// TestTenantFairnessOversubscribed: an oversubscribed pool stretches
// each tenant's pinglist intervals by exactly 1/share, grants never
// exceed demand, and the pool is fully used.
func TestTenantFairnessOversubscribed(t *testing.T) {
	tp := buildClos(t)
	cfgs := []TenantConfig{{Name: "gold", Weight: 3}, {Name: "silver", Weight: 2}, {Name: "bronze", Weight: 1}}

	// Measure untenanted demand first so we can pick a pool that is
	// roughly 2× oversubscribed whatever the pinglist rates are.
	free := New(sim.New(1), tp, Config{})
	registerAllSimple(free, tp)
	var demand float64
	for _, host := range tp.AllHosts() {
		for _, pl := range free.Pinglists(host) {
			if pl.Interval > 0 {
				demand += float64(sim.Second) / float64(pl.Interval)
			}
		}
	}
	if demand <= 0 {
		t.Fatal("no probe demand in test topology")
	}
	capacity := demand / 2

	c := New(sim.New(1), tp, Config{Tenants: cfgs, TenantCapacityPPS: capacity})
	registerAllSimple(c, tp)
	grants := c.TenantGrants()
	if len(grants) != len(cfgs) {
		t.Fatalf("grants = %+v", grants)
	}
	var granted, reported float64
	for _, g := range grants {
		if g.GrantedPPS > g.DemandPPS {
			t.Fatalf("tenant %s granted %v above demand %v", g.Name, g.GrantedPPS, g.DemandPPS)
		}
		if g.DemandPPS > 0 && g.Share >= 1 {
			t.Fatalf("tenant %s unstretched (share %v) under 2x oversubscription: %+v", g.Name, g.Share, g)
		}
		granted += g.GrantedPPS
		reported += g.DemandPPS
	}
	if math.Abs(reported-demand) > 1e-6 {
		t.Fatalf("tenant demand sum %v != untenanted demand %v", reported, demand)
	}
	if math.Abs(granted-capacity) > 0.01 {
		t.Fatalf("granted sum %v != capacity %v", granted, capacity)
	}

	// Every host's intervals are stretched by exactly 1/share.
	shares := make(map[string]float64, len(grants))
	for _, g := range grants {
		shares[g.Name] = g.Share
	}
	ts := c.ten
	for _, host := range tp.AllHosts() {
		share := shares[cfgs[ts.tenantOf(host)].Name]
		raw := free.Pinglists(host)
		scaled := c.Pinglists(host)
		for i := range raw {
			want := sim.Time(float64(raw[i].Interval) / share)
			if scaled[i].Interval != want {
				t.Fatalf("host %s list %d interval %v, want %v (share %v)",
					host, i, scaled[i].Interval, want, share)
			}
		}
	}
}

// TestTenantMaxPPSCap: a tenant's own cap bounds its grant even when the
// pool would give it more.
func TestTenantMaxPPSCap(t *testing.T) {
	tp := buildClos(t)
	c := New(sim.New(1), tp, Config{
		Tenants:           []TenantConfig{{Name: "capped", Weight: 10, MaxPPS: 1}, {Name: "open", Weight: 1}},
		TenantCapacityPPS: 1 << 20, // effectively infinite pool
	})
	registerAllSimple(c, tp)
	for _, g := range c.TenantGrants() {
		if g.Name == "capped" && g.Hosts > 0 && g.GrantedPPS > 1 {
			t.Fatalf("capped tenant granted %v above its 1 pps cap", g.GrantedPPS)
		}
		if g.Name == "open" && g.GrantedPPS != g.DemandPPS {
			t.Fatalf("open tenant throttled with an infinite pool: %+v", g)
		}
	}
}

// TestTenantGrantsConcurrentWithControlPath: the daemon's stats loop and
// the ops console's /api/tenants read TenantGrants from their own
// goroutines while the wire control path registers RNICs, serves
// pinglists, and rotates tuples. Under -race this pins the Controller's
// internal locking — the console read used to race Register's registry
// writes and the scheduler's recompute.
func TestTenantGrantsConcurrentWithControlPath(t *testing.T) {
	tp := buildClos(t)
	c := New(sim.New(1), tp, Config{
		Tenants:           []TenantConfig{{Name: "a", Weight: 2}, {Name: "b", Weight: 1}},
		TenantCapacityPPS: 50,
	})
	hosts := tp.AllHosts()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.TenantGrants()
				c.Registered()
			}
		}()
	}
	for round := 0; round < 20; round++ {
		registerAllSimple(c, tp)
		for _, h := range hosts {
			c.Pinglists(h)
		}
		c.RotateInterToR()
	}
	close(stop)
	wg.Wait()
	if g := c.TenantGrants(); len(g) != 2 {
		t.Fatalf("grants after concurrent churn = %+v", g)
	}
}

// TestTenantAssignmentStable: the FNV host partition is a pure function
// of the host name — identical across controllers and restarts.
func TestTenantAssignmentStable(t *testing.T) {
	tp := buildClos(t)
	mk := func() *Controller {
		c := New(sim.New(1), tp, Config{
			Tenants:           []TenantConfig{{Name: "a", Weight: 1}, {Name: "b", Weight: 1}},
			TenantCapacityPPS: 10,
		})
		registerAllSimple(c, tp)
		return c
	}
	a, b := mk(), mk()
	for _, host := range tp.AllHosts() {
		if a.ten.tenantOf(host) != b.ten.tenantOf(host) {
			t.Fatalf("host %s assigned to different tenants across controllers", host)
		}
	}
	// And rotation keeps pinglists identical across the two controllers.
	for _, host := range tp.AllHosts() {
		la, lb := a.Pinglists(host), b.Pinglists(host)
		if fmt.Sprint(la) != fmt.Sprint(lb) {
			t.Fatalf("host %s pinglists diverge across identical controllers", host)
		}
	}
}
