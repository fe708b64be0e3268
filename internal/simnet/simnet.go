// Package simnet is the RoCE data plane of the reproduction: it carries
// probe packets hop-by-hop over the topology with queueing delay, drops,
// PFC pathologies and ACL filtering, and carries service traffic as fluid
// flows whose rates react to congestion through a pluggable congestion
// controller (internal/cc).
//
// Two granularities coexist by design (see DESIGN.md):
//
//   - Probes and ACKs are discrete packets. Their per-hop latency reads
//     the fluid queue state, so probe RTT faithfully reflects congestion
//     caused by service traffic — the mechanism behind the paper's
//     Figures 5, 8, 10 and 11.
//   - Service flows are fluid: every tick (default 1 ms) per-link offered
//     load is computed, rates are scaled to capacity, queues integrate the
//     excess, and ECN feedback drives the congestion controller.
package simnet

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"sync/atomic"

	"rpingmesh/internal/ecmp"
	"rpingmesh/internal/qos"
	"rpingmesh/internal/rnic"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

// DropCause classifies where/why the network dropped a packet. This is
// simulator ground truth, used to score the Analyzer's localization
// accuracy — the real system never sees it.
type DropCause int

const (
	// DropNone means delivered.
	DropNone DropCause = iota
	// DropLinkDown: the link (or its cable) was administratively or
	// physically down, including flap windows.
	DropLinkDown
	// DropCorrupt: per-link random corruption (damaged fiber, #2).
	DropCorrupt
	// DropPFC: the link was blocked by a PFC deadlock or storm (#5).
	DropPFC
	// DropACL: a switch ACL denied the 5-tuple (#8).
	DropACL
	// DropHeadroom: packet lost during heavy congestion on a link with
	// unconfigured/misconfigured PFC headroom (#9).
	DropHeadroom
	// DropNoRoute: destination IP unknown or routing failed.
	DropNoRoute
)

func (c DropCause) String() string {
	switch c {
	case DropNone:
		return "none"
	case DropLinkDown:
		return "link-down"
	case DropCorrupt:
		return "corrupt"
	case DropPFC:
		return "pfc"
	case DropACL:
		return "acl"
	case DropHeadroom:
		return "headroom"
	case DropNoRoute:
		return "no-route"
	default:
		return fmt.Sprintf("cause(%d)", int(c))
	}
}

// dropCauseCount sizes per-link drop counters (DropNone..DropNoRoute).
const dropCauseCount = int(DropNoRoute) + 1

// LinkStats aggregates per-directed-link ground truth.
type LinkStats struct {
	Delivered int64
	Drops     map[DropCause]int64
}

// Config parameterizes the data plane.
type Config struct {
	// PropDelay is per-hop propagation plus switch pipeline latency.
	// Defaults to 600 ns (≈ 100 m fiber + cut-through switching).
	PropDelay sim.Time
	// Tick is the fluid-model update period. Defaults to 1 ms.
	Tick sim.Time
	// MaxQueueBytes caps each link's queue (switch buffer + PFC headroom).
	// Defaults to 8 MiB per link.
	MaxQueueBytes float64
	// ECNThresholdBytes is the queue depth that begins ECN marking.
	// Defaults to 1 MiB.
	ECNThresholdBytes float64
	// CC builds per-flow congestion control state. Nil means flows always
	// send at their demand (no congestion control).
	CC CongestionControl
	// QoS enables the per-priority lossless-fabric model (internal/qos):
	// N traffic classes per link, per-class PFC pause/resume with
	// headroom, and CNP feedback on its own priority. The zero value
	// (Classes <= 1) keeps the classic single-queue data plane,
	// bit-identical to builds before QoS existed.
	QoS qos.Config
}

// EffectivePropDelay reports the per-hop propagation delay after default
// resolution — what internal/core multiplies by the partition's minimum
// cross-shard hop count to size the parallel engine's lookahead.
func (c Config) EffectivePropDelay() sim.Time {
	c.setDefaults()
	return c.PropDelay
}

func (c *Config) setDefaults() {
	if c.PropDelay <= 0 {
		c.PropDelay = 600 * sim.Nanosecond
	}
	if c.Tick <= 0 {
		c.Tick = sim.Millisecond
	}
	if c.MaxQueueBytes <= 0 {
		c.MaxQueueBytes = 8 << 20
	}
	if c.ECNThresholdBytes <= 0 {
		c.ECNThresholdBytes = 1 << 20
	}
}

type linkState struct {
	link *topo.Link

	down        bool
	pfcBlocked  bool
	dropProb    float64
	badHeadroom bool
	extraDelay  sim.Time // standing PFC-pause wait (storms, #13/#14)
	// unstableUntil marks the post-flap stabilization window: packets
	// dropped during the down phase trigger go-back-N storms when the
	// link returns, so RoCE goodput through a recently-flapped link stays
	// collapsed (the Figure-1 mechanism).
	unstableUntil sim.Time

	// Fluid state.
	queueBytes  float64
	offeredGbps float64
	ecn         bool

	// Ground-truth counters. Atomic because packets from different pod
	// shards can cross the same directed link (spine-to-agg links carry
	// every pod's inbound traffic) inside one parallel window; the sums are
	// commutative so the totals are exact regardless of interleaving.
	delivered  atomic.Int64
	dropCounts [dropCauseCount]atomic.Int64
}

type aclKey struct {
	sw       topo.DeviceID
	src, dst netip.Addr
}

// routeKey identifies one deterministic ECMP routing decision: the source
// device plus the full five-tuple (the destination device is a pure
// function of DstIP, the hash choices a pure function of the tuple).
type routeKey struct {
	src   topo.DeviceID
	tuple ecmp.FiveTuple
}

// routeCacheMax bounds the cache; tuples rotate (hourly inter-ToR source
// port rotation), so on overflow the whole cache is dropped and rebuilt
// rather than tracking LRU state on the hot path.
const routeCacheMax = 1 << 16

// Net is the simulated RoCE fabric. It implements rnic.Network.
//
// Under the sharded engine, SendPacket runs on the sending device's pod
// shard, concurrently with other pods. The method confines itself to
// reads of fabric-owned state (routing tables, fluid queues, fault flags —
// all frozen during pod windows), atomic counter updates, and a
// cross-shard delivery through sim.ScheduleOn. Everything that *mutates*
// fabric-owned state (fluid ticks, fault injection, ACL changes) runs on
// the fabric shard.
type Net struct {
	eng  *sim.Engine
	topo *topo.Topology
	cfg  Config
	rng  *rand.Rand

	// dropSalt seeds the per-packet drop hash. Drop decisions are a pure
	// hash of (salt, link, packet identity, time) rather than sequential
	// rng draws, so they are independent of the global packet ordering —
	// a precondition for shard-count-independent results.
	dropSalt uint64

	devs    map[topo.DeviceID]*rnic.Device
	devByIP map[netip.Addr]*rnic.Device

	links []*linkState

	aclDeny map[aclKey]bool

	flows     map[FlowID]*Flow
	nextID    FlowID
	tickArmed bool

	// Route cache. topo.Route is a pure function of (src, tuple) for a
	// built topology (routing tables are immutable; faults and drops are
	// applied outside routing), so memoizing it is free determinism-wise
	// and removes the per-packet BFS-descent and map-hashing cost from the
	// hot path. Guarded by an RWMutex because packets from different pod
	// shards route concurrently inside one parallel window; cached slices
	// are never mutated after insertion. PathOf hands the same slices to
	// tracers, so a re-trace keeps its path's identity; nothing needs
	// invalidating on a link-state change, because routing ignores it.
	routeMu    sync.RWMutex
	routeCache map[routeKey][]topo.LinkID

	// Per-priority state (nil when Config.QoS is disabled — the classic
	// single-queue path must stay bit-identical).
	qos       *qos.State
	qosDevIdx map[topo.DeviceID]int // device -> row in devAssert/devWait
	devAssert [][]bool              // tick scratch: device asserts pause per class
	devWait   [][]sim.Time          // tick scratch: worst drain wait per class
	tickCount int64
}

// New builds the data plane over a topology.
func New(eng *sim.Engine, tp *topo.Topology, cfg Config) *Net {
	cfg.setDefaults()
	n := &Net{
		eng:     eng,
		topo:    tp,
		cfg:     cfg,
		rng:     eng.SubRand("simnet"),
		devs:    make(map[topo.DeviceID]*rnic.Device),
		devByIP: make(map[netip.Addr]*rnic.Device),
		links:   make([]*linkState, len(tp.Links)),
		aclDeny: make(map[aclKey]bool),
		flows:   make(map[FlowID]*Flow),

		routeCache: make(map[routeKey][]topo.LinkID),
	}
	n.dropSalt = n.rng.Uint64()
	for i, l := range tp.Links {
		n.links[i] = &linkState{link: l}
	}
	// QoS setup draws no randomness and must stay after the dropSalt draw
	// so disabled-QoS runs keep their exact RNG stream.
	n.initQoS()
	return n
}

// armTick schedules the next fluid-model update. The model only ticks
// while there is fluid state to evolve (live flows or standing queues), so
// probe-only simulations can drain the event queue completely.
func (n *Net) armTick() {
	if n.tickArmed {
		return
	}
	n.tickArmed = true
	n.eng.After(n.cfg.Tick, func() {
		n.tickArmed = false
		n.tick()
		if len(n.flows) > 0 || n.anyQueue() {
			n.armTick()
		}
	})
}

func (n *Net) anyQueue() bool {
	for _, ls := range n.links {
		if ls.queueBytes > 0 {
			return true
		}
	}
	return false
}

// Topology returns the underlying topology.
func (n *Net) Topology() *topo.Topology { return n.topo }

// Register attaches an RNIC device to the fabric at its topology position.
func (n *Net) Register(d *rnic.Device) {
	n.devs[d.ID()] = d
	n.devByIP[d.IP()] = d
}

// Device returns a registered device.
func (n *Net) Device(id topo.DeviceID) (*rnic.Device, bool) {
	d, ok := n.devs[id]
	return d, ok
}

// DeviceByIP returns a registered device by IP.
func (n *Net) DeviceByIP(ip netip.Addr) (*rnic.Device, bool) {
	d, ok := n.devByIP[ip]
	return d, ok
}

// PathOf returns the ECMP path a packet with the given tuple takes from
// src to the device owning the tuple's destination IP. It answers from
// the route cache SendPacket uses, so repeated calls for one (src, tuple)
// return the same read-only slice until the cache overflows.
func (n *Net) PathOf(src topo.DeviceID, tuple ecmp.FiveTuple) ([]topo.LinkID, error) {
	dst, ok := n.devByIP[tuple.DstIP]
	if !ok {
		return nil, fmt.Errorf("simnet: no device with IP %v", tuple.DstIP)
	}
	return n.routeFor(src, dst.ID(), tuple)
}

// engFor returns the engine owning a registered device's events, falling
// back to the fabric engine for unknown devices. In serial mode every
// device reports the one engine, so all of this collapses to the old
// single-heap behavior.
func (n *Net) engFor(id topo.DeviceID) *sim.Engine {
	if d, ok := n.devs[id]; ok {
		return d.Engine()
	}
	return n.eng
}

// EngineFor exposes the owning engine of a device's events (trace needs
// the source host's clock for its token buckets).
func (n *Net) EngineFor(id topo.DeviceID) *sim.Engine { return n.engFor(id) }

// routeFor returns the (memoized) ECMP path for a packet. Cached paths
// are capped at their length, so a holder that appends copies instead of
// writing into the shared array.
func (n *Net) routeFor(src topo.DeviceID, dst topo.DeviceID, tuple ecmp.FiveTuple) ([]topo.LinkID, error) {
	key := routeKey{src: src, tuple: tuple}
	n.routeMu.RLock()
	path, ok := n.routeCache[key]
	n.routeMu.RUnlock()
	if ok {
		return path, nil
	}
	path, err := n.topo.Route(src, dst, tuple.Hasher())
	if err != nil {
		return nil, err
	}
	path = path[:len(path):len(path)]
	n.routeMu.Lock()
	defer n.routeMu.Unlock()
	if cached, ok := n.routeCache[key]; ok {
		// Another pod shard routed the same tuple first: keep its slice,
		// so every holder sees one identity per key.
		return cached, nil
	}
	if len(n.routeCache) >= routeCacheMax {
		clear(n.routeCache)
	}
	n.routeCache[key] = path
	return path, nil
}

// SendPacket implements rnic.Network: route, apply faults, queue delays,
// then deliver.
func (n *Net) SendPacket(p *rnic.Packet) {
	dst, ok := n.devByIP[p.Tuple.DstIP]
	if !ok {
		return
	}
	path, err := n.routeFor(p.SrcDev, dst.ID(), p.Tuple)
	if err != nil {
		return
	}
	srcEng := n.engFor(p.SrcDev)
	now := srcEng.Now()
	delay := sim.Time(0)
	cls := 0
	if n.qos != nil {
		cls = n.qos.ClassOf(p.DSCP)
	}
	for _, lid := range path {
		ls := n.links[lid]
		if n.qos != nil {
			delay += n.cfg.PropDelay + n.classDelay(lid, cls)
		} else {
			delay += n.cfg.PropDelay + n.queueDelay(ls)
		}
		if cause := n.dropAt(ls, p, now); cause != DropNone {
			ls.dropCounts[cause].Add(1)
			return
		}
		ls.delivered.Add(1)
	}
	// The destination device is already in hand — resolve its engine
	// directly instead of re-looking it up by ID. A pooled packet carries
	// its delivery callback, so the hop schedules without a closure.
	srcEng.ScheduleOn(dst.Engine(), now+delay, p.DeliverTo(dst))
}

// chance returns a uniform [0,1) value that is a pure function of the
// packet's identity, the link, the instant, and a per-site salt — the
// same decision no matter which order concurrent shards evaluate it in.
func (n *Net) chance(ls *linkState, p *rnic.Packet, now sim.Time, site uint64) float64 {
	h := n.dropSalt ^ (site * 0x9e3779b97f4a7c15)
	for _, v := range []uint64{
		uint64(ls.link.ID), uint64(now),
		uint64(p.SrcQPN), uint64(p.DstQPN), p.Seq, p.WRID, uint64(p.Kind),
	} {
		h ^= v
		h *= 1099511628211
		h ^= h >> 29
	}
	return float64(h>>11) / float64(1<<53)
}

// dropAt evaluates fault state for a packet crossing a link at virtual
// time now (the sending shard's clock).
func (n *Net) dropAt(ls *linkState, p *rnic.Packet, now sim.Time) DropCause {
	if ls.down {
		return DropLinkDown
	}
	if ls.pfcBlocked {
		return DropPFC
	}
	if now < ls.unstableUntil && n.chance(ls, p, now, 1) < 0.3 {
		// Post-flap instability loses packets too.
		return DropLinkDown
	}
	if ls.dropProb > 0 && n.chance(ls, p, now, 2) < ls.dropProb {
		return DropCorrupt
	}
	// ACL is evaluated at the ingress switch of the link's To endpoint.
	if len(n.aclDeny) > 0 {
		if _, isSwitch := n.topo.Switches[ls.link.To]; isSwitch {
			if n.aclDeny[aclKey{sw: ls.link.To, src: p.Tuple.SrcIP, dst: p.Tuple.DstIP}] {
				return DropACL
			}
		}
	}
	// PFC headroom misconfiguration drops packets only under heavy
	// congestion — exactly the paper's "packet drops during heavy
	// congestion" (#9).
	if ls.badHeadroom && ls.queueBytes > 0.85*n.cfg.MaxQueueBytes {
		if n.chance(ls, p, now, 3) < 0.25 {
			return DropHeadroom
		}
	}
	return DropNone
}

func (n *Net) queueDelay(ls *linkState) sim.Time {
	d := ls.extraDelay
	if ls.queueBytes > 0 {
		sec := ls.queueBytes * 8 / (ls.link.CapacityGbps * 1e9)
		d += sim.Time(sec * 1e9)
	}
	return d
}

// QueueBytesOn reports the current queue depth of a directed link.
func (n *Net) QueueBytesOn(l topo.LinkID) float64 { return n.links[l].queueBytes }

// Stats returns a copy of the ground-truth stats for a directed link.
func (n *Net) Stats(l topo.LinkID) LinkStats {
	ls := n.links[l]
	out := LinkStats{Delivered: ls.delivered.Load(), Drops: make(map[DropCause]int64)}
	for c := 0; c < dropCauseCount; c++ {
		if v := ls.dropCounts[c].Load(); v != 0 {
			out.Drops[DropCause(c)] = v
		}
	}
	return out
}

// --- Fault injection -------------------------------------------------

// bothDirections applies fn to the two directed links of the cable that
// contains l.
func (n *Net) bothDirections(l topo.LinkID, fn func(*linkState)) {
	cable := n.topo.Links[l].Cable
	for _, ls := range n.links {
		if ls.link.Cable == cable {
			fn(ls)
		}
	}
}

// SetLinkDown raises/lowers both directions of the cable containing l
// (port flapping toggles this). A down→up transition leaves the link
// unstable for a second: retransmission storms for the packets lost while
// down keep goodput collapsed slightly past the transition.
func (n *Net) SetLinkDown(l topo.LinkID, down bool) {
	n.bothDirections(l, func(ls *linkState) {
		if ls.down && !down {
			ls.unstableUntil = n.eng.Now() + sim.Second
		}
		ls.down = down
	})
}

// LinkDown reports whether a directed link is down.
func (n *Net) LinkDown(l topo.LinkID) bool { return n.links[l].down }

// SetLinkCorruption sets a per-packet drop probability on one directed
// link (damaged fiber is usually directional).
func (n *Net) SetLinkCorruption(l topo.LinkID, p float64) { n.links[l].dropProb = p }

// SetPFCBlocked marks both directions of a cable as blocked by a PFC
// deadlock (two ports pausing each other forever, #5).
func (n *Net) SetPFCBlocked(l topo.LinkID, blocked bool) {
	n.bothDirections(l, func(ls *linkState) { ls.pfcBlocked = blocked })
}

// SetBadHeadroom marks a directed link as having unconfigured or
// misconfigured PFC headroom (#9): it drops during heavy congestion.
func (n *Net) SetBadHeadroom(l topo.LinkID, bad bool) { n.links[l].badHeadroom = bad }

// injectQueue adds standing queue to a directed link. Used to model
// PFC storms from intra-host bottlenecks (#13/#14): the RNIC cannot drain,
// pause frames propagate, and queues build toward that RNIC.
func (n *Net) injectQueue(l topo.LinkID, bytes float64) {
	if n.qos != nil {
		// Per-priority fabric: legacy injections land on the default class.
		n.InjectClassQueue(l, 0, bytes)
		return
	}
	n.injectQueueLegacy(l, bytes)
}

func (n *Net) injectQueueLegacy(l topo.LinkID, bytes float64) {
	ls := n.links[l]
	ls.queueBytes = min(ls.queueBytes+bytes, n.cfg.MaxQueueBytes)
	n.armTick()
}

// SetLinkExtraDelay sets a standing per-packet delay on a directed link,
// modeling persistent PFC pausing: an intra-host bottleneck (PCIe
// downgrade/misconfig, #13/#14) keeps the RNIC from draining, pause
// frames hold the switch egress port, and everything toward that RNIC
// waits — the paper's PFC storm with its high P99 RTT (Fig 8 right).
func (n *Net) SetLinkExtraDelay(l topo.LinkID, d sim.Time) { n.links[l].extraDelay = d }

// DenyACL installs a deny rule: packets src->dst crossing sw are dropped.
func (n *Net) DenyACL(sw topo.DeviceID, src, dst netip.Addr) {
	n.aclDeny[aclKey{sw: sw, src: src, dst: dst}] = true
}

// AllowACL removes a deny rule.
func (n *Net) AllowACL(sw topo.DeviceID, src, dst netip.Addr) {
	delete(n.aclDeny, aclKey{sw: sw, src: src, dst: dst})
}
