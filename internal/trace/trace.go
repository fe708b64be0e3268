// Package trace implements probe path tracing. R-Pingmesh traces the path
// of every probe 5-tuple (and of its ACK) so the Analyzer can localize
// switch problems by voting over anomalous paths (§4.2.3, Algorithm 1).
//
// The default implementation models Traceroute: it discovers the path one
// TTL at a time, but data-center switches rate-limit their ICMP/TTL
// responses to protect the switch CPU, so hops can come back unknown when
// tracing too fast. The PathTracer interface is deliberately decoupled
// from the probing modules so stronger primitives (INT, ERSPAN) can slot
// in (§7.4); an INT-style tracer, whose hops never rate-limit, is
// provided.
package trace

import (
	"rpingmesh/internal/ecmp"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/simnet"
	"rpingmesh/internal/topo"
)

// PathTracer discovers the network path a tuple's packets take from a
// source RNIC. origin names the host driving the trace: rate-limit
// accounting is attributed to it, on its clock. It differs from src's
// host when an Agent traces its probe's ACK tuple, whose source RNIC is
// the remote responder — attribution to the origin keeps all tracer state
// owned by the originating pod shard, which is what lets concurrently
// tracing pods stay race-free and deterministic.
//
// TracePath returns the directed links of the path when every hop
// answered, and nil otherwise (a hop behind a dead link, a rate-limited
// switch, or a tuple with no route). The returned slice is the fabric's
// cached route: read-only, and the same slice on every trace of one
// (src, tuple), so callers can compare paths by identity.
type PathTracer interface {
	TracePath(origin topo.HostID, src topo.DeviceID, tuple ecmp.FiveTuple) []topo.LinkID
}

// Traceroute is the TTL-walking tracer with per-switch response rate
// limiting.
//
// The switch CPU policer is modeled per (switch, source pod): each pod's
// agents compete for their own slice of the switch's response budget. Pod
// is a topology property, so the model behaves identically under the
// serial and the pod-sharded engine — and concurrently-tracing pod shards
// never touch each other's bucket state.
type Traceroute struct {
	net *simnet.Net
	eng *sim.Engine

	// PerSwitchRPS is each switch's maximum TTL-expired responses per
	// second (per source pod). Defaults to 100 (typical COPP policer
	// ballpark).
	PerSwitchRPS float64
	// Burst is the token bucket burst. Defaults to 20.
	Burst float64

	// buckets[pod][switch]; the outer map is fixed at construction so pod
	// shards only ever write their own inner map.
	buckets map[int]map[topo.DeviceID]*bucket
}

type bucket struct {
	tokens float64
	last   sim.Time
}

// NewTraceroute builds a tracer over the data plane.
func NewTraceroute(eng *sim.Engine, net *simnet.Net) *Traceroute {
	t := &Traceroute{
		net:          net,
		eng:          eng,
		PerSwitchRPS: 100,
		Burst:        20,
		buckets:      make(map[int]map[topo.DeviceID]*bucket),
	}
	for _, h := range net.Topology().Hosts {
		if _, ok := t.buckets[h.Pod]; !ok {
			t.buckets[h.Pod] = make(map[topo.DeviceID]*bucket)
		}
	}
	return t
}

// originPod maps the originating host to its pod (bucket namespace).
func (t *Traceroute) originPod(origin topo.HostID) int {
	if h, ok := t.net.Topology().Hosts[origin]; ok {
		return h.Pod
	}
	return -1
}

// originClock reads the originating host's shard clock (the one global
// clock in serial mode).
func originClock(net *simnet.Net, origin topo.HostID) sim.Time {
	if h, ok := net.Topology().Hosts[origin]; ok && len(h.RNICs) > 0 {
		return net.EngineFor(h.RNICs[0]).Now()
	}
	// Unknown origin: EngineFor's fallback is the fabric engine.
	return net.EngineFor("").Now()
}

func (t *Traceroute) take(pod int, sw topo.DeviceID, now sim.Time) bool {
	byPod, ok := t.buckets[pod]
	if !ok {
		// Unknown sources (not expected in practice) share a fallback pod.
		byPod = make(map[topo.DeviceID]*bucket)
		t.buckets[pod] = byPod
	}
	b, ok := byPod[sw]
	if !ok {
		b = &bucket{tokens: t.Burst, last: now}
		byPod[sw] = b
	}
	elapsed := (now - b.last).Seconds()
	b.last = now
	b.tokens += elapsed * t.PerSwitchRPS
	if b.tokens > t.Burst {
		b.tokens = t.Burst
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// TracePath implements PathTracer. It walks the cached route hop by
// hop; the walk ends at a link that is down or blocked, since nothing
// beyond it answers (as real traceroute shows a trail of '*'s, which
// carry no localization information). Every switch hop before that
// point asks its (switch, origin pod) token bucket, even after an
// earlier hop went unanswered; the destination host answers without a
// policer.
func (t *Traceroute) TracePath(origin topo.HostID, src topo.DeviceID, tuple ecmp.FiveTuple) []topo.LinkID {
	path, err := t.net.PathOf(src, tuple)
	if err != nil {
		return nil
	}
	tp := t.net.Topology()
	now := originClock(t.net, origin)
	pod := t.originPod(origin)
	complete := true
	for _, lid := range path {
		if t.net.LinkDown(lid) {
			return nil
		}
		to := tp.Links[lid].To
		if _, isSwitch := tp.Switches[to]; isSwitch && !t.take(pod, to, now) {
			complete = false
		}
	}
	if !complete {
		return nil
	}
	return path
}

// INT is an in-band-telemetry-style tracer: every hop always answers (no
// switch CPU involved), so a trace is incomplete only behind a dead link
// (§7.4).
type INT struct {
	net *simnet.Net
}

// NewINT builds an INT tracer.
func NewINT(_ *sim.Engine, net *simnet.Net) *INT { return &INT{net: net} }

// TracePath implements PathTracer.
func (t *INT) TracePath(_ topo.HostID, src topo.DeviceID, tuple ecmp.FiveTuple) []topo.LinkID {
	path, err := t.net.PathOf(src, tuple)
	if err != nil {
		return nil
	}
	for _, lid := range path {
		if t.net.LinkDown(lid) {
			return nil
		}
	}
	return path
}
