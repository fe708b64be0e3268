// Tenant scheduling: the controller's probe capacity is a shared
// resource, and at "millions of users" scale many tenants compete for
// it. Hosts are partitioned deterministically into named tenants; each
// tenant's aggregate probe demand (the sum of its hosts' pinglist
// rates) is granted a share of Config.TenantCapacityPPS by deficit
// round robin — weighted max-min fairness in exact integer milli-pps
// quanta — and an under-granted tenant's pinglist intervals are
// stretched proportionally at pull time. With no tenants configured
// the scheduler is entirely out of the path: pinglists are
// bit-identical to the untenanted controller.
package controller

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"rpingmesh/internal/proto"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

// TenantConfig declares one probe tenant.
type TenantConfig struct {
	// Name labels the tenant in /api/tenants and logs.
	Name string
	// Weight is the tenant's DRR weight (< 1 clamps to 1): a weight-4
	// tenant outranks a weight-1 tenant 4:1 under contention.
	Weight int
	// MaxPPS caps the tenant's probe rate regardless of fair share
	// (0 = no cap beyond its demand).
	MaxPPS float64
}

// ParseTenants parses a -tenants flag value: comma-separated
// name:weight or name:weight:maxpps entries, e.g.
// "gold:4,silver:2,bronze:1" or "gold:4:500,batch:1:50".
func ParseTenants(s string) ([]TenantConfig, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []TenantConfig
	seen := make(map[string]bool)
	for _, ent := range strings.Split(s, ",") {
		parts := strings.Split(ent, ":")
		for i := range parts {
			parts[i] = strings.TrimSpace(parts[i])
		}
		if len(parts) < 2 || len(parts) > 3 || parts[0] == "" {
			return nil, fmt.Errorf("tenant %q: want name:weight or name:weight:maxpps", ent)
		}
		if seen[parts[0]] {
			return nil, fmt.Errorf("tenant %q declared twice", parts[0])
		}
		seen[parts[0]] = true
		w, err := strconv.Atoi(parts[1])
		if err != nil || w < 1 {
			return nil, fmt.Errorf("tenant %q: bad weight %q", parts[0], parts[1])
		}
		tc := TenantConfig{Name: parts[0], Weight: w}
		if len(parts) == 3 {
			max, err := strconv.ParseFloat(parts[2], 64)
			if err != nil || !(max > 0) || math.IsInf(max, 0) {
				return nil, fmt.Errorf("tenant %q: bad maxpps %q", parts[0], parts[2])
			}
			tc.MaxPPS = max
		}
		out = append(out, tc)
	}
	return out, nil
}

// TenantGrant is one tenant's scheduling outcome, served at
// /api/tenants.
type TenantGrant struct {
	Name       string  `json:"name"`
	Weight     int     `json:"weight"`
	Hosts      int     `json:"hosts"`
	DemandPPS  float64 `json:"demand_pps"`
	GrantedPPS float64 `json:"granted_pps"`
	// Share = Granted/Demand is the interval stretch factor applied to
	// the tenant's pinglists (1 = running at full demand).
	Share float64 `json:"share"`
}

// DRRGrants divides capacityPPS across tenant demands by deficit round
// robin in integer milli-pps: each round, tenant i's deficit counter
// grows by weights[i] quanta (1 pps each) and it takes min(deficit,
// unmet demand, remaining capacity). The result is weighted max-min
// fair, exact, and deterministic. capacityPPS <= 0 means uncontended:
// every tenant is granted its full demand.
func DRRGrants(demands []float64, weights []int, capacityPPS float64) []float64 {
	n := len(demands)
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	if capacityPPS <= 0 {
		copy(out, demands)
		return out
	}
	const quantum = 1000 // 1 pps, in milli-pps
	dem := make([]int64, n)
	var total int64
	for i, d := range demands {
		if d > 0 {
			dem[i] = int64(d*1000 + 0.5)
		}
		total += dem[i]
	}
	remaining := int64(capacityPPS*1000 + 0.5)
	if remaining >= total {
		copy(out, demands)
		return out
	}
	grants := make([]int64, n)
	deficit := make([]int64, n)
	for remaining > 0 {
		progress := false
		for i := 0; i < n && remaining > 0; i++ {
			unmet := dem[i] - grants[i]
			if unmet <= 0 {
				continue
			}
			w := int64(weights[i])
			if w < 1 {
				w = 1
			}
			deficit[i] += w * quantum
			take := deficit[i]
			if take > unmet {
				take = unmet
			}
			if take > remaining {
				take = remaining
			}
			if take > 0 {
				grants[i] += take
				deficit[i] -= take
				remaining -= take
				progress = true
			}
		}
		if !progress {
			break // every demand met; leftover capacity stays idle
		}
	}
	for i, g := range grants {
		out[i] = float64(g) / 1000
	}
	return out
}

// tenantState is the controller's scheduler bookkeeping, guarded by
// Controller.mu like the rest of the control state: grants are
// recomputed lazily when the registry or tuple assignments change, and
// the ops console's /api/tenants reads ride the same lock as the wire
// control path.
type tenantState struct {
	cfgs     []TenantConfig
	capacity float64

	dirty bool
	share []float64 // per-tenant interval stretch (granted/demand)
	snap  []TenantGrant
}

// tenantOf assigns a host to a tenant by FNV-1a hash — stable across
// runs and processes, so every federation node and restart agrees.
func (ts *tenantState) tenantOf(host topo.HostID) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(host); i++ {
		h ^= uint64(host[i])
		h *= 1099511628211
	}
	return int(h % uint64(len(ts.cfgs)))
}

// Tenants reports whether tenant scheduling is active.
func (c *Controller) Tenants() bool { return c.ten != nil }

// TenantGrants returns the current per-tenant scheduling outcome
// (recomputing it first if the fleet changed). Safe for concurrent use
// with the control path: the recompute reads the registry, so it takes
// the Controller lock like every other exported method.
func (c *Controller) TenantGrants() []TenantGrant {
	if c.ten == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.retuneTenants()
	return append([]TenantGrant(nil), c.ten.snap...)
}

// markTenantsDirty queues a grant recompute; called whenever pinglist
// demand can have changed (registration, tuple rotation). Caller holds
// c.mu.
func (c *Controller) markTenantsDirty() {
	if c.ten != nil {
		c.ten.dirty = true
	}
}

// retuneTenants recomputes per-tenant demand from the unscaled
// pinglists of every host, runs DRR over the capacity pool, and stores
// each tenant's interval stretch. O(hosts × pinglist build); demand
// changes only on registration and rotation, so this runs rarely.
// Caller holds c.mu.
func (c *Controller) retuneTenants() {
	ts := c.ten
	if ts == nil || !ts.dirty {
		return
	}
	ts.dirty = false
	n := len(ts.cfgs)
	demand := make([]float64, n)
	hosts := make([]int, n)
	for _, host := range c.tp.AllHosts() {
		t := ts.tenantOf(host)
		hosts[t]++
		for _, pl := range c.rawPinglists(host) {
			if pl.Interval > 0 {
				demand[t] += float64(sim.Second) / float64(pl.Interval)
			}
		}
	}
	// A tenant's own cap bounds its demand before fairness: capacity a
	// capped tenant cannot use is contended by the others.
	weights := make([]int, n)
	capped := make([]float64, n)
	for i, tc := range ts.cfgs {
		weights[i] = tc.Weight
		capped[i] = demand[i]
		if tc.MaxPPS > 0 && capped[i] > tc.MaxPPS {
			capped[i] = tc.MaxPPS
		}
	}
	granted := DRRGrants(capped, weights, ts.capacity)

	if ts.share == nil {
		ts.share = make([]float64, n)
	}
	snap := make([]TenantGrant, n)
	for i, tc := range ts.cfgs {
		share := 1.0
		if demand[i] > 0 && granted[i] < demand[i] {
			share = granted[i] / demand[i]
		}
		ts.share[i] = share
		snap[i] = TenantGrant{
			Name: tc.Name, Weight: tc.Weight, Hosts: hosts[i],
			DemandPPS: demand[i], GrantedPPS: granted[i], Share: share,
		}
	}
	ts.snap = snap
}

// applyTenantScale stretches a host's pinglist intervals to its
// tenant's granted share. No-op without tenants. Caller holds c.mu.
func (c *Controller) applyTenantScale(host topo.HostID, lists []proto.Pinglist) {
	ts := c.ten
	if ts == nil || len(lists) == 0 {
		return
	}
	c.retuneTenants()
	share := ts.share[ts.tenantOf(host)]
	if share >= 1 {
		return
	}
	if share <= 0 {
		share = 1e-6 // never divide to infinity; a starved tenant probes at ~0
	}
	for i := range lists {
		lists[i].Interval = sim.Time(float64(lists[i].Interval) / share)
	}
}
