// Package topo models the RoCE cluster topology that R-Pingmesh monitors:
// hosts, RNICs, switches, directed links, and ECMP up/down routing.
//
// Two builders are provided, matching the paper's deployments:
//
//   - BuildClos: the 3-tier CLOS fabric of §6 (ToR / Agg / Spine tiers,
//     1:1 oversubscription) where every NIC of a host attaches to the same
//     ToR switch.
//   - BuildRailOptimized: the 2-tier rail-optimized fabric of §7.4 /
//     Fig 12, where NIC i of every host attaches to rail switch i and all
//     rail switches connect to all spine switches.
//
// Links are directed: each physical cable contributes two Link values that
// share a Cable index. Probe path tracing and the Algorithm-1 voting
// localizer both operate on directed links, while physical faults (port
// flapping, fiber damage) attach to cables.
package topo

import (
	"fmt"
	"net/netip"
	"sort"
)

// DeviceID names a switch or an RNIC, e.g. "tor-0-1", "spine-3",
// "rnic-0-1-2-0" (pod-tor-host-nic).
type DeviceID string

// HostID names a server.
type HostID string

// LinkID is a dense index into Topology.Links.
type LinkID int

// NoLink is the zero value for "no such link".
const NoLink LinkID = -1

// Tier is a switch tier in the fabric.
type Tier int

const (
	// TierToR is the bottom switch tier (ToR switches, or rail switches in
	// a rail-optimized fabric).
	TierToR Tier = iota
	// TierAgg is the aggregation tier of a 3-tier CLOS.
	TierAgg
	// TierSpine is the top tier.
	TierSpine
)

func (t Tier) String() string {
	switch t {
	case TierToR:
		return "tor"
	case TierAgg:
		return "agg"
	case TierSpine:
		return "spine"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// Switch is a network switch.
type Switch struct {
	ID    DeviceID
	Tier  Tier
	Pod   int // pod number for ToR/Agg; -1 for spine and rail fabrics
	Index int // index within (tier, pod)
}

// RNIC is an RDMA NIC attached to a host and (via one cable) to a
// bottom-tier switch.
type RNIC struct {
	ID    DeviceID
	Host  HostID
	Index int // index within the host; equals the rail in rail-optimized fabrics
	IP    netip.Addr
	GID   string
	ToR   DeviceID // attached bottom-tier switch
}

// Host is a server carrying one or more RNICs.
type Host struct {
	ID    HostID
	Pod   int
	Index int
	RNICs []DeviceID // in NIC-index order
}

// Link is one direction of a physical cable.
type Link struct {
	ID           LinkID
	From, To     DeviceID
	Cable        int // both directions of a cable share this index
	CapacityGbps float64
}

// Topology is an immutable cluster graph.
type Topology struct {
	Name     string
	Switches map[DeviceID]*Switch
	RNICs    map[DeviceID]*RNIC
	Hosts    map[HostID]*Host
	Links    []*Link

	// Rail reports whether this is a rail-optimized fabric (affects how
	// Cluster Monitoring probes: §7.4).
	Rail bool

	linkByPair map[[2]DeviceID]LinkID
	up         map[DeviceID][]DeviceID // uplink neighbours, sorted for determinism
	torRNICs   map[DeviceID][]DeviceID // bottom-tier switch -> attached RNICs, sorted
	cables     int
	aggsPP     int // cached aggs-per-pod for plane routing
}

// LinkBetween returns the directed link from a to b, or NoLink.
func (t *Topology) LinkBetween(a, b DeviceID) LinkID {
	if id, ok := t.linkByPair[[2]DeviceID{a, b}]; ok {
		return id
	}
	return NoLink
}

// Uplinks returns the uplink neighbours of a switch or RNIC, in a fixed
// deterministic order (ECMP indexes into this slice).
func (t *Topology) Uplinks(dev DeviceID) []DeviceID { return t.up[dev] }

// RNICsUnderToR returns the RNICs attached to a bottom-tier switch, sorted
// by ID. This is the ToR-mesh probing peer set of §4.1.
func (t *Topology) RNICsUnderToR(tor DeviceID) []DeviceID { return t.torRNICs[tor] }

// ToRs returns all bottom-tier switches sorted by ID.
func (t *Topology) ToRs() []DeviceID {
	var out []DeviceID
	for id, sw := range t.Switches {
		if sw.Tier == TierToR {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AllRNICs returns all RNIC IDs sorted.
func (t *Topology) AllRNICs() []DeviceID {
	out := make([]DeviceID, 0, len(t.RNICs))
	for id := range t.RNICs {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AllHosts returns all host IDs sorted.
func (t *Topology) AllHosts() []HostID {
	out := make([]HostID, 0, len(t.Hosts))
	for id := range t.Hosts {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// rnicByIP resolves an RNIC by its IP address.
func (t *Topology) rnicByIP(ip netip.Addr) (*RNIC, bool) {
	for _, r := range t.RNICs {
		if r.IP == ip {
			return r, true
		}
	}
	return nil, false
}

// Hasher selects one of n equal-cost next hops at a switch for a given
// flow. Implementations hash the outer 5-tuple together with the switch
// identity so per-hop choices are independent (see internal/ecmp).
type Hasher interface {
	Choose(sw DeviceID, n int) int
}

// HasherFunc adapts a function to the Hasher interface.
type HasherFunc func(sw DeviceID, n int) int

// Choose implements Hasher.
func (f HasherFunc) Choose(sw DeviceID, n int) int { return f(sw, n) }

// Route computes the directed links a packet traverses from src RNIC to
// dst RNIC under ECMP up/down routing: the packet travels up the fabric,
// choosing among equal-cost uplinks with h, until it reaches a switch that
// is an ancestor of the destination, then travels down deterministically.
func (t *Topology) Route(src, dst DeviceID, h Hasher) ([]LinkID, error) {
	sr, ok := t.RNICs[src]
	if !ok {
		return nil, fmt.Errorf("topo: unknown source RNIC %q", src)
	}
	dr, ok := t.RNICs[dst]
	if !ok {
		return nil, fmt.Errorf("topo: unknown destination RNIC %q", dst)
	}
	if src == dst {
		return nil, fmt.Errorf("topo: route from %q to itself", src)
	}

	var path []LinkID
	appendHop := func(from, to DeviceID) error {
		l := t.LinkBetween(from, to)
		if l == NoLink {
			return fmt.Errorf("topo: no link %q -> %q", from, to)
		}
		path = append(path, l)
		return nil
	}

	// Up the fabric from the source RNIC.
	cur := src
	next := sr.ToR
	if err := appendHop(cur, next); err != nil {
		return nil, err
	}
	cur = next

	// Climb until cur is an ancestor of dst, then descend.
	for {
		down, ok := t.descendStep(cur, dr)
		if ok {
			for down != "" {
				if err := appendHop(cur, down); err != nil {
					return nil, err
				}
				cur = down
				if cur == dst {
					return path, nil
				}
				down, _ = t.descendStep(cur, dr)
			}
			// Descend stalled before reaching dst.
			return nil, fmt.Errorf("topo: descent from %q stalled before %q", cur, dst)
		}
		ups := t.up[cur]
		if len(ups) == 0 {
			return nil, fmt.Errorf("topo: dead end at %q routing %q -> %q", cur, src, dst)
		}
		choice := h.Choose(cur, len(ups))
		if choice < 0 || choice >= len(ups) {
			return nil, fmt.Errorf("topo: hasher chose %d of %d at %q", choice, len(ups), cur)
		}
		next = ups[choice]
		if err := appendHop(cur, next); err != nil {
			return nil, err
		}
		cur = next
	}
}

// descendStep returns the next hop downward from switch cur toward dst, or
// ok=false if cur is not an ancestor of dst. Reaching the destination RNIC
// is signalled by returning the RNIC itself.
func (t *Topology) descendStep(cur DeviceID, dst *RNIC) (DeviceID, bool) {
	sw, ok := t.Switches[cur]
	if !ok {
		return "", false
	}
	switch sw.Tier {
	case TierToR:
		if dst.ToR == cur {
			return dst.ID, true
		}
		return "", false
	case TierAgg:
		dtor := t.Switches[dst.ToR]
		if dtor != nil && dtor.Pod == sw.Pod {
			return dst.ToR, true
		}
		return "", false
	case TierSpine:
		// A spine is an ancestor of everything. In a 3-tier CLOS descend
		// to an agg in the destination pod (deterministically the agg with
		// the spine's plane index); in a rail fabric descend directly to
		// the destination rail switch.
		if t.Rail {
			return dst.ToR, true
		}
		dtor := t.Switches[dst.ToR]
		if dtor == nil {
			return "", false
		}
		// Planes: spine s connects to agg (s mod aggsPerPod) in each pod.
		target := aggID(dtor.Pod, sw.Index%t.aggsPerPod())
		if t.LinkBetween(cur, target) == NoLink {
			return "", false
		}
		return target, true
	}
	return "", false
}

func (t *Topology) aggsPerPod() int {
	if t.aggsPP == 0 {
		n := 0
		for _, sw := range t.Switches {
			if sw.Tier == TierAgg && sw.Pod == 0 {
				n++
			}
		}
		if n == 0 {
			n = 1
		}
		t.aggsPP = n
	}
	return t.aggsPP
}

// ParallelPaths returns the number of distinct equal-cost paths between two
// bottom-tier switches; this is the N of Equation 1.
func (t *Topology) ParallelPaths(torA, torB DeviceID) int {
	if torA == torB {
		return 0
	}
	a, b := t.Switches[torA], t.Switches[torB]
	if a == nil || b == nil {
		return 0
	}
	if t.Rail {
		// rail -> spine -> rail: one path per spine.
		return len(t.up[torA])
	}
	if a.Pod == b.Pod {
		return t.aggsPerPod()
	}
	// tor -> agg (choice) -> spine (choice); the spine->agg descent is
	// plane-determined, so N = sum over aggs of their spine fan-out.
	n := 0
	for _, agg := range t.up[torA] {
		n += len(t.up[agg])
	}
	return n
}

// Validate checks structural invariants: every link has a reverse, every
// RNIC has a ToR link, uplink lists are sorted, and IDs are consistent.
func (t *Topology) Validate() error {
	for _, l := range t.Links {
		if t.LinkBetween(l.To, l.From) == NoLink {
			return fmt.Errorf("topo: link %v (%s->%s) has no reverse", l.ID, l.From, l.To)
		}
		if l.CapacityGbps <= 0 {
			return fmt.Errorf("topo: link %v has capacity %v", l.ID, l.CapacityGbps)
		}
	}
	for id, r := range t.RNICs {
		if r.ID != id {
			return fmt.Errorf("topo: RNIC map key %q != ID %q", id, r.ID)
		}
		if t.LinkBetween(id, r.ToR) == NoLink || t.LinkBetween(r.ToR, id) == NoLink {
			return fmt.Errorf("topo: RNIC %q not cabled to its ToR %q", id, r.ToR)
		}
		h, ok := t.Hosts[r.Host]
		if !ok {
			return fmt.Errorf("topo: RNIC %q references unknown host %q", id, r.Host)
		}
		found := false
		for _, rid := range h.RNICs {
			if rid == id {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("topo: host %q does not list RNIC %q", r.Host, id)
		}
	}
	for dev, ups := range t.up {
		if !sort.SliceIsSorted(ups, func(i, j int) bool { return ups[i] < ups[j] }) {
			return fmt.Errorf("topo: uplinks of %q not sorted", dev)
		}
	}
	return nil
}

func torID(pod, idx int) DeviceID { return DeviceID(fmt.Sprintf("tor-%d-%d", pod, idx)) }
func aggID(pod, idx int) DeviceID { return DeviceID(fmt.Sprintf("agg-%d-%d", pod, idx)) }
func spineID(idx int) DeviceID    { return DeviceID(fmt.Sprintf("spine-%d", idx)) }
func railID(idx int) DeviceID     { return DeviceID(fmt.Sprintf("rail-%d", idx)) }
func hostID(pod, idx int) HostID  { return HostID(fmt.Sprintf("host-%d-%d", pod, idx)) }
func rnicID(h HostID, n int) DeviceID {
	return DeviceID(fmt.Sprintf("rnic-%s-%d", string(h)[len("host-"):], n))
}
