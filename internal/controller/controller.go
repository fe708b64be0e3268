// Package controller implements the R-Pingmesh Controller (§4.1): the
// central registry of RNIC communication info and the generator of
// ToR-mesh and inter-ToR pinglists.
//
// Registry: an RNIC is addressed by GID + QPN, but the QPN only exists
// after the owning Agent creates its probing QP, and changes on every
// Agent restart — so Agents re-register at startup and pinglists embed the
// registry's latest QPN at pull time.
//
// Inter-ToR coverage: the Controller solves Equation 1 (internal/ecmp) for
// the number of random 5-tuples k each ToR needs to cover its N parallel
// cross-ToR paths with probability P=0.99, and sizes probe intervals so
// every link above the ToR tier carries at least TargetLinkPPS probes per
// second per direction. 20 % of the inter-ToR tuples rotate every hour to
// catch problems only certain 5-tuples trigger (silent drops for specific
// tuples).
package controller

import (
	"math/rand"
	"net/netip"
	"sort"
	"sync"

	"rpingmesh/internal/ecmp"
	"rpingmesh/internal/proto"
	"rpingmesh/internal/rnic"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

// Config parameterizes the Controller. Zero values take the paper's
// deployment settings (§5).
type Config struct {
	// CoverageP is Equation 1's target coverage probability (0.99).
	CoverageP float64
	// TargetLinkPPS is the minimum probes/s per fabric link per direction
	// (10, for 100 ms detection granularity).
	TargetLinkPPS float64
	// ToRMeshPPS is each RNIC's ToR-mesh probing rate (10 pps).
	ToRMeshPPS float64
	// RotateFraction is the share of inter-ToR tuples replaced per
	// rotation (0.2 per hour).
	RotateFraction float64
	// MaxRNICPPS caps any single RNIC's total probing rate ("the probe
	// frequency is typically less than 150 packets per second", §6) so a
	// small ToR population cannot be told to probe unreasonably fast.
	MaxRNICPPS float64
	// Tenants, when non-empty, partitions hosts into named probe tenants
	// whose aggregate rates are scheduled by deficit round robin over
	// TenantCapacityPPS (tenant.go). Empty leaves pinglists untouched.
	Tenants []TenantConfig
	// TenantCapacityPPS is the fleet-wide probe-capacity pool the tenant
	// scheduler divides (0 = uncontended: every tenant runs at demand).
	TenantCapacityPPS float64
}

func (c *Config) setDefaults() {
	if c.CoverageP <= 0 || c.CoverageP >= 1 {
		c.CoverageP = 0.99
	}
	if c.TargetLinkPPS <= 0 {
		c.TargetLinkPPS = 10
	}
	if c.ToRMeshPPS <= 0 {
		c.ToRMeshPPS = 10
	}
	if c.RotateFraction <= 0 || c.RotateFraction > 1 {
		c.RotateFraction = 0.2
	}
	if c.MaxRNICPPS <= 0 {
		c.MaxRNICPPS = 150
	}
}

// tupleSkeleton is an inter-ToR probe assignment before QPN resolution:
// the (src, dst, port) triple that pins an ECMP path.
type tupleSkeleton struct {
	src, dst topo.DeviceID
	port     uint16
}

// Controller is the central module. Its exported methods are safe for
// concurrent use: the wire front-end serializes the control path under
// its own mutex, but the daemon's stats loop and the ops console
// (/api/tenants) call in from other goroutines, so the Controller
// guards its registry and scheduler state itself.
type Controller struct {
	tp  *topo.Topology
	cfg Config
	rng *rand.Rand

	// mu guards every field below; exported methods lock it, unexported
	// helpers assume it is held.
	mu sync.Mutex

	registry map[topo.DeviceID]proto.RNICInfo
	byIP     map[netip.Addr]topo.DeviceID

	// interToR holds the per-ToR tuple skeletons, keyed by ToR switch.
	interToR map[topo.DeviceID][]tupleSkeleton
	// torRate is each ToR's aggregate inter-ToR probe rate (probes/s).
	torRate map[topo.DeviceID]float64

	// ten is the tenant scheduler state; nil without Config.Tenants.
	ten *tenantState
}

// New builds a Controller for a topology and generates the initial
// inter-ToR tuple assignments.
func New(eng *sim.Engine, tp *topo.Topology, cfg Config) *Controller {
	cfg.setDefaults()
	c := &Controller{
		tp:       tp,
		cfg:      cfg,
		rng:      eng.SubRand("controller"),
		registry: make(map[topo.DeviceID]proto.RNICInfo),
		byIP:     make(map[netip.Addr]topo.DeviceID),
		interToR: make(map[topo.DeviceID][]tupleSkeleton),
		torRate:  make(map[topo.DeviceID]float64),
	}
	for _, tor := range tp.ToRs() {
		c.interToR[tor] = c.generateSkeletons(tor, c.tupleCount(tor))
		c.torRate[tor] = cfg.TargetLinkPPS * float64(len(tp.Uplinks(tor)))
	}
	if len(cfg.Tenants) > 0 {
		c.ten = &tenantState{
			cfgs:     cfg.Tenants,
			capacity: cfg.TenantCapacityPPS,
			dirty:    true,
		}
	}
	return c
}

// tupleCount solves Equation 1 for a ToR: enough tuples to cover the
// maximum parallel-path count toward any other ToR.
func (c *Controller) tupleCount(tor topo.DeviceID) int {
	n := 0
	for _, other := range c.tp.ToRs() {
		if other == tor {
			continue
		}
		if p := c.tp.ParallelPaths(tor, other); p > n {
			n = p
		}
	}
	if n == 0 {
		return 0
	}
	return ecmp.TuplesForCoverage(n, c.cfg.CoverageP)
}

// generateSkeletons picks k random (srcRNIC-under-tor, dstRNIC-elsewhere,
// srcPort) triples. In rail-optimized fabrics the destinations are the
// source host's own NICs on other rails (§7.4): those flows cross the
// spine tier, so the same k covers the fabric without inter-host pairs.
func (c *Controller) generateSkeletons(tor topo.DeviceID, k int) []tupleSkeleton {
	local := c.tp.RNICsUnderToR(tor)
	if len(local) == 0 || k <= 0 {
		return nil
	}
	var remote []topo.DeviceID
	if !c.tp.Rail {
		for _, other := range c.tp.ToRs() {
			if other != tor {
				remote = append(remote, c.tp.RNICsUnderToR(other)...)
			}
		}
		if len(remote) == 0 {
			return nil
		}
	}
	out := make([]tupleSkeleton, 0, k)
	for i := 0; i < k; i++ {
		src := local[c.rng.Intn(len(local))]
		var dst topo.DeviceID
		if c.tp.Rail {
			// Another NIC on the same host, attached to a different rail.
			host := c.tp.Hosts[c.tp.RNICs[src].Host]
			if len(host.RNICs) < 2 {
				continue
			}
			for {
				dst = host.RNICs[c.rng.Intn(len(host.RNICs))]
				if dst != src {
					break
				}
			}
		} else {
			dst = remote[c.rng.Intn(len(remote))]
		}
		out = append(out, tupleSkeleton{src: src, dst: dst, port: c.randPort()})
	}
	return out
}

func (c *Controller) randPort() uint16 { return uint16(c.rng.Intn(60000-1024) + 1024) }

// Register implements proto.Controller.
func (c *Controller) Register(infos []proto.RNICInfo) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, info := range infos {
		c.registry[info.Dev] = info
		c.byIP[info.IP] = info.Dev
	}
	// Registrations resolve pinglist targets, changing tenant demand.
	c.markTenantsDirty()
}

// Lookup implements proto.Controller.
func (c *Controller) Lookup(ip netip.Addr) (proto.RNICInfo, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	dev, ok := c.byIP[ip]
	if !ok {
		return proto.RNICInfo{}, false
	}
	info, ok := c.registry[dev]
	return info, ok
}

// CurrentQPN returns the latest registered probing QPN of a device; the
// Analyzer uses it to classify QPN-reset timeouts (§4.3.1).
func (c *Controller) CurrentQPN(dev topo.DeviceID) (rnic.QPN, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	info, ok := c.registry[dev]
	return info.QPN, ok
}

// Registered returns the number of registry entries.
func (c *Controller) Registered() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.registry)
}

// Pinglists implements proto.Controller: the ToR-mesh and inter-ToR
// pinglists for every RNIC of the host, with destination info resolved
// to the registry's latest values and — when tenants are configured —
// intervals stretched to the host's tenant's DRR-granted share.
func (c *Controller) Pinglists(host topo.HostID) []proto.Pinglist {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.rawPinglists(host)
	c.applyTenantScale(host, out)
	return out
}

// rawPinglists builds the unscaled lists; the tenant scheduler reads
// these to compute demand.
func (c *Controller) rawPinglists(host topo.HostID) []proto.Pinglist {
	h, ok := c.tp.Hosts[host]
	if !ok {
		return nil
	}
	var out []proto.Pinglist
	for _, dev := range h.RNICs {
		if pl, ok := c.torMeshList(dev); ok {
			out = append(out, pl)
		}
		if pl, ok := c.interToRList(dev); ok {
			out = append(out, pl)
		}
	}
	return out
}

func (c *Controller) torMeshList(dev topo.DeviceID) (proto.Pinglist, bool) {
	r, ok := c.tp.RNICs[dev]
	if !ok {
		return proto.Pinglist{}, false
	}
	pl := proto.Pinglist{
		Kind:     proto.ToRMesh,
		Src:      dev,
		Interval: sim.Time(float64(sim.Second) / c.cfg.ToRMeshPPS),
	}
	for _, peer := range c.tp.RNICsUnderToR(r.ToR) {
		if peer == dev {
			continue
		}
		info, ok := c.registry[peer]
		if !ok {
			continue
		}
		pl.Targets = append(pl.Targets, proto.PingTarget{Dst: info, SrcPort: c.stablePort(dev, peer)})
	}
	if len(pl.Targets) == 0 {
		return proto.Pinglist{}, false
	}
	return pl, true
}

// stablePort derives a fixed source port for a ToR-mesh pair; intra-ToR
// paths have no ECMP choice, so the port only needs to be valid, not
// rotated.
func (c *Controller) stablePort(a, b topo.DeviceID) uint16 {
	h := uint32(2166136261)
	for _, s := range []topo.DeviceID{a, b} {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint32(s[i])) * 16777619
		}
	}
	return uint16(h%(60000-1024)) + 1024
}

func (c *Controller) interToRList(dev topo.DeviceID) (proto.Pinglist, bool) {
	r, ok := c.tp.RNICs[dev]
	if !ok {
		return proto.Pinglist{}, false
	}
	skels := c.interToR[r.ToR]
	var mine []tupleSkeleton
	for _, sk := range skels {
		if sk.src == dev {
			mine = append(mine, sk)
		}
	}
	if len(mine) == 0 {
		return proto.Pinglist{}, false
	}
	pl := proto.Pinglist{Kind: proto.InterToR, Src: dev}
	for _, sk := range mine {
		info, ok := c.registry[sk.dst]
		if !ok {
			continue
		}
		pl.Targets = append(pl.Targets, proto.PingTarget{Dst: info, SrcPort: sk.port})
	}
	if len(pl.Targets) == 0 {
		return proto.Pinglist{}, false
	}
	// Spread the ToR's aggregate rate over its tuples: this list fires
	// len(Targets) tuples, each at torRate/k pps — clamped so no single
	// RNIC exceeds its probing budget (§6: <150 pps per RNIC, shared with
	// the 10 pps ToR-mesh worker).
	k := len(skels)
	rate := c.torRate[r.ToR] * float64(len(pl.Targets)) / float64(k)
	if budget := c.cfg.MaxRNICPPS - c.cfg.ToRMeshPPS; rate > budget {
		rate = budget
	}
	pl.Interval = sim.Time(float64(sim.Second) / rate)
	return pl, true
}

// RotateInterToR replaces RotateFraction of each ToR's tuples with fresh
// random ones (hourly in the paper).
func (c *Controller) RotateInterToR() {
	c.mu.Lock()
	defer c.mu.Unlock()
	tors := make([]topo.DeviceID, 0, len(c.interToR))
	for tor := range c.interToR {
		tors = append(tors, tor)
	}
	sort.Slice(tors, func(i, j int) bool { return tors[i] < tors[j] })
	for _, tor := range tors {
		skels := c.interToR[tor]
		n := int(float64(len(skels)) * c.cfg.RotateFraction)
		if n == 0 && len(skels) > 0 {
			n = 1
		}
		fresh := c.generateSkeletons(tor, n)
		for i := 0; i < len(fresh) && i < len(skels); i++ {
			skels[c.rng.Intn(len(skels))] = fresh[i]
		}
	}
	// Rotation reshuffles which RNICs own tuples, changing tenant demand.
	c.markTenantsDirty()
}
