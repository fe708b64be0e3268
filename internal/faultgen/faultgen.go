// Package faultgen injects the 14 root causes of the paper's Table 2
// into a running cluster, with ground truth recorded so experiments can
// score the Analyzer's localization accuracy — the Fig 6 evaluation.
//
// Causes #1–#5 are hardware failures, #6–#9 misconfigurations, #10–#11
// network congestion, #12–#14 intra-host bottlenecks.
package faultgen

import (
	"fmt"
	"math/rand"

	"rpingmesh/internal/core"
	"rpingmesh/internal/ecmp"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/simnet"
	"rpingmesh/internal/topo"
)

// Cause enumerates Table 2's root causes (numbered as in the paper).
type Cause int

const (
	// FlappingPort (#1): RNIC or switch port flapping between up/down.
	FlappingPort Cause = iota + 1
	// PacketCorruption (#2): drops from damaged fiber / dusty modules.
	PacketCorruption
	// RNICDown (#3): accidental RNIC down.
	RNICDown
	// HostDown (#4): accidental host down.
	HostDown
	// PFCDeadlock (#5): two ports pausing each other, blocking a link.
	PFCDeadlock
	// MissingRouteConfig (#6): RNIC lacks its RDMA routing configuration.
	MissingRouteConfig
	// GIDIndexMissing (#7): RNIC lost the cluster's RDMA GID index.
	GIDIndexMissing
	// ACLError (#8): switch ACL misconfiguration isolating tenant pairs.
	ACLError
	// PFCHeadroomMisconfig (#9): drops during heavy congestion.
	PFCHeadroomMisconfig
	// UnevenLoadBalance (#10): ECMP hash-collision uplink congestion.
	UnevenLoadBalance
	// ServiceInterference (#11): another tenant's traffic sharing links.
	ServiceInterference
	// CPUOverload (#12): end-host CPU saturated.
	CPUOverload
	// PCIeDowngraded (#13): RNIC/GPU PCIe link trained at lower speed,
	// backpressuring into PFC storms.
	PCIeDowngraded
	// PCIeMisconfig (#14): wrong ACS/ATS configuration, same observable
	// as #13.
	PCIeMisconfig
)

func (c Cause) String() string {
	switch c {
	case FlappingPort:
		return "flapping-port"
	case PacketCorruption:
		return "packet-corruption"
	case RNICDown:
		return "rnic-down"
	case HostDown:
		return "host-down"
	case PFCDeadlock:
		return "pfc-deadlock"
	case MissingRouteConfig:
		return "missing-route-config"
	case GIDIndexMissing:
		return "gid-index-missing"
	case ACLError:
		return "acl-error"
	case PFCHeadroomMisconfig:
		return "pfc-headroom-misconfig"
	case UnevenLoadBalance:
		return "uneven-load-balance"
	case ServiceInterference:
		return "service-interference"
	case CPUOverload:
		return "cpu-overload"
	case PCIeDowngraded:
		return "pcie-downgraded"
	case PCIeMisconfig:
		return "pcie-misconfig"
	default:
		return fmt.Sprintf("cause(%d)", int(c))
	}
}

// Category is the paper's problem taxonomy.
type Category int

const (
	// HardwareFailure covers #1–#5.
	HardwareFailure Category = iota
	// Misconfiguration covers #6–#9.
	Misconfiguration
	// NetworkCongestion covers #10–#11.
	NetworkCongestion
	// IntraHostBottleneck covers #12–#14.
	IntraHostBottleneck
)

// CategoryOf maps a cause to its Table-2 category.
func CategoryOf(c Cause) Category {
	switch {
	case c <= PFCDeadlock:
		return HardwareFailure
	case c <= PFCHeadroomMisconfig:
		return Misconfiguration
	case c <= ServiceInterference:
		return NetworkCongestion
	default:
		return IntraHostBottleneck
	}
}

func (cat Category) String() string {
	switch cat {
	case HardwareFailure:
		return "hardware-failure"
	case Misconfiguration:
		return "misconfiguration"
	case NetworkCongestion:
		return "network-congestion"
	case IntraHostBottleneck:
		return "intra-host-bottleneck"
	default:
		return "unknown"
	}
}

// Fault is one injectable problem. Exactly one of Dev/Link/Host is the
// target, depending on the cause.
type Fault struct {
	Cause Cause
	Dev   topo.DeviceID // RNIC-targeted causes
	Link  topo.LinkID   // link/switch-targeted causes
	Host  topo.HostID   // host-targeted causes
	// Severity is cause-specific: drop probability for corruption
	// (default 0.05), CPU load for overload (default 0.97), flow count
	// for congestion (default 4).
	Severity float64
}

// ActiveFault is an injected fault with its undo.
type ActiveFault struct {
	Fault
	Injected sim.Time
	Cleared  sim.Time // zero while active

	clear func()
}

// TrueLocation describes ground truth for localization scoring: either a
// device (RNIC/host problems) or a cable (link problems).
func (a *ActiveFault) TrueLocation() (dev topo.DeviceID, link topo.LinkID, host topo.HostID) {
	return a.Dev, a.Link, a.Host
}

// Injector applies faults to a cluster.
type Injector struct {
	c   *core.Cluster
	rng *rand.Rand

	active  []*ActiveFault
	history []*ActiveFault
}

// NewInjector builds an injector over a cluster.
func NewInjector(c *core.Cluster, seed int64) *Injector {
	return &Injector{c: c, rng: rand.New(rand.NewSource(seed))}
}

// History returns every fault ever injected (including cleared ones).
func (in *Injector) History() []*ActiveFault { return in.history }

// Inject applies a fault and returns its handle.
func (in *Injector) Inject(f Fault) (*ActiveFault, error) {
	af := &ActiveFault{Fault: f, Injected: in.c.Eng.Now()}
	var err error
	switch f.Cause {
	case FlappingPort:
		err = in.injectFlap(af)
	case PacketCorruption:
		err = in.injectCorruption(af)
	case RNICDown:
		err = in.devFault(af, func(d deviceLike) { d.SetUp(false) }, func(d deviceLike) { d.SetUp(true) })
	case HostDown:
		err = in.injectHostDown(af)
	case PFCDeadlock:
		err = in.linkFault(af, func(l topo.LinkID) { in.c.Net.SetPFCBlocked(l, true) }, func(l topo.LinkID) { in.c.Net.SetPFCBlocked(l, false) })
	case MissingRouteConfig, GIDIndexMissing:
		err = in.devFault(af, func(d deviceLike) { d.SetMisconfigured(true) }, func(d deviceLike) { d.SetMisconfigured(false) })
	case ACLError:
		err = in.injectACL(af)
	case PFCHeadroomMisconfig:
		err = in.linkFault(af, func(l topo.LinkID) { in.c.Net.SetBadHeadroom(l, true) }, func(l topo.LinkID) { in.c.Net.SetBadHeadroom(l, false) })
	case UnevenLoadBalance, ServiceInterference:
		err = in.injectCongestion(af)
	case CPUOverload:
		err = in.injectCPUOverload(af)
	case PCIeDowngraded, PCIeMisconfig:
		err = in.injectPCIe(af)
	default:
		err = fmt.Errorf("faultgen: unknown cause %v", f.Cause)
	}
	if err != nil {
		return nil, err
	}
	in.active = append(in.active, af)
	in.history = append(in.history, af)
	return af, nil
}

// Clear undoes a fault.
func (in *Injector) Clear(af *ActiveFault) {
	if af.clear == nil {
		return
	}
	af.clear()
	af.clear = nil
	af.Cleared = in.c.Eng.Now()
	for i, a := range in.active {
		if a == af {
			in.active = append(in.active[:i], in.active[i+1:]...)
			break
		}
	}
}

// ClearAll undoes every active fault.
func (in *Injector) ClearAll() {
	for len(in.active) > 0 {
		in.Clear(in.active[0])
	}
}

type deviceLike interface {
	SetUp(bool)
	SetMisconfigured(bool)
}

func (in *Injector) device(af *ActiveFault) (deviceLike, error) {
	d := in.c.Device(af.Dev)
	if d == nil {
		return nil, fmt.Errorf("faultgen: %v needs a valid Dev target, got %q", af.Cause, af.Dev)
	}
	return d, nil
}

func (in *Injector) devFault(af *ActiveFault, apply, undo func(deviceLike)) error {
	d, err := in.device(af)
	if err != nil {
		return err
	}
	apply(d)
	af.clear = func() { undo(d) }
	return nil
}

func (in *Injector) linkFault(af *ActiveFault, apply, undo func(topo.LinkID)) error {
	if int(af.Link) < 0 || int(af.Link) >= len(in.c.Topo.Links) {
		return fmt.Errorf("faultgen: %v needs a valid Link target, got %v", af.Cause, af.Link)
	}
	l := af.Link
	apply(l)
	af.clear = func() { undo(l) }
	return nil
}

// injectFlap toggles the target up/down at a few-hundred-ms cadence: a
// Dev target flaps the RNIC; a Link target flaps the switch port (both
// directions of the cable).
func (in *Injector) injectFlap(af *ActiveFault) error {
	period := 400 * sim.Millisecond
	if af.Dev != "" {
		d := in.c.Device(af.Dev)
		if d == nil {
			return fmt.Errorf("faultgen: flap target %q unknown", af.Dev)
		}
		// An RNIC flap is a host-port flap: the device AND its cable to
		// the ToR bounce together.
		hostLink := in.c.Topo.LinkBetween(af.Dev, in.c.Topo.RNICs[af.Dev].ToR)
		down := false
		t := in.c.Eng.Every(period, period, func() {
			down = !down
			d.SetUp(!down)
			in.c.Net.SetLinkDown(hostLink, down)
		})
		af.clear = func() {
			t.Stop()
			d.SetUp(true)
			in.c.Net.SetLinkDown(hostLink, false)
		}
		return nil
	}
	if int(af.Link) < 0 || int(af.Link) >= len(in.c.Topo.Links) {
		return fmt.Errorf("faultgen: flap needs Dev or Link target")
	}
	l := af.Link
	down := false
	t := in.c.Eng.Every(period, period, func() {
		down = !down
		in.c.Net.SetLinkDown(l, down)
	})
	af.clear = func() { t.Stop(); in.c.Net.SetLinkDown(l, false) }
	return nil
}

func (in *Injector) injectCorruption(af *ActiveFault) error {
	sev := af.Severity
	if af.Dev != "" {
		if sev <= 0 {
			// Damaged host cables drop heavily; above the 10 % ToR-mesh
			// detection threshold, as production corruption cases are.
			sev = 0.25
		}
		d := in.c.Device(af.Dev)
		if d == nil {
			return fmt.Errorf("faultgen: corruption target %q unknown", af.Dev)
		}
		d.SetRxCorruption(sev)
		af.clear = func() { d.SetRxCorruption(0) }
		return nil
	}
	if sev <= 0 {
		sev = 0.05
	}
	return in.linkFault(af,
		func(l topo.LinkID) { in.c.Net.SetLinkCorruption(l, sev) },
		func(l topo.LinkID) { in.c.Net.SetLinkCorruption(l, 0) })
}

func (in *Injector) injectHostDown(af *ActiveFault) error {
	node := in.c.Host(af.Host)
	if node == nil {
		return fmt.Errorf("faultgen: host %q unknown", af.Host)
	}
	node.Host.SetDown(true)
	af.clear = func() { node.Host.SetDown(false) }
	return nil
}

// injectACL denies traffic between a random same-cluster RNIC pair at the
// target link's switch (public-cloud tenant isolation gone wrong, #8).
func (in *Injector) injectACL(af *ActiveFault) error {
	d := in.c.Device(af.Dev)
	if d == nil {
		return fmt.Errorf("faultgen: ACL needs the victim RNIC in Dev")
	}
	// Deny everything to/from the victim at its ToR: the tenant's other
	// hosts can no longer reach it.
	tor := in.c.Topo.RNICs[af.Dev].ToR
	var undo []func()
	for _, other := range in.c.Topo.AllRNICs() {
		if other == af.Dev {
			continue
		}
		src := in.c.Topo.RNICs[other].IP
		dst := d.IP()
		in.c.Net.DenyACL(tor, src, dst)
		in.c.Net.DenyACL(tor, dst, src)
		s, dd := src, dst
		undo = append(undo, func() {
			in.c.Net.AllowACL(tor, s, dd)
			in.c.Net.AllowACL(tor, dd, s)
		})
	}
	af.clear = func() {
		for _, u := range undo {
			u()
		}
	}
	return nil
}

// injectCongestion adds background flows that pile onto the target link
// (hash collisions #10 / another tenant #11). Severity is the flow count.
func (in *Injector) injectCongestion(af *ActiveFault) error {
	if int(af.Link) < 0 || int(af.Link) >= len(in.c.Topo.Links) {
		return fmt.Errorf("faultgen: congestion needs a Link target")
	}
	n := int(af.Severity)
	if n <= 0 {
		n = 4
	}
	flows := in.flowsThrough(af.Link, n)
	if len(flows) == 0 {
		return fmt.Errorf("faultgen: found no tuples crossing link %v", af.Link)
	}
	af.clear = func() {
		for _, f := range flows {
			in.c.Net.RemoveFlow(f)
		}
	}
	return nil
}

// flowsThrough searches random RNIC pairs and source ports for tuples
// whose ECMP path crosses the target link, installing up to n full-rate
// flows.
func (in *Injector) flowsThrough(link topo.LinkID, n int) []simnet.FlowID {
	var out []simnet.FlowID
	rnics := in.c.Topo.AllRNICs()
	for attempt := 0; attempt < 4000 && len(out) < n; attempt++ {
		src := rnics[in.rng.Intn(len(rnics))]
		dst := rnics[in.rng.Intn(len(rnics))]
		if src == dst || in.c.Topo.RNICs[src].Host == in.c.Topo.RNICs[dst].Host {
			continue
		}
		tuple := ecmp.RoCETuple(in.c.Topo.RNICs[src].IP, in.c.Topo.RNICs[dst].IP, uint16(in.rng.Intn(60000-1024)+1024))
		path, err := in.c.Topo.Route(src, dst, tuple.Hasher())
		if err != nil {
			continue
		}
		hit := false
		for _, l := range path {
			if l == link {
				hit = true
				break
			}
		}
		if !hit {
			continue
		}
		f, err := in.c.Net.AddFlow(simnet.FlowSpec{Src: src, Dst: dst, Tuple: tuple, DemandGbps: in.c.Topo.Links[link].CapacityGbps})
		if err != nil {
			continue
		}
		out = append(out, f.ID)
	}
	return out
}

func (in *Injector) injectCPUOverload(af *ActiveFault) error {
	node := in.c.Host(af.Host)
	if node == nil {
		return fmt.Errorf("faultgen: CPU overload needs a Host target")
	}
	sev := af.Severity
	if sev <= 0 {
		sev = 0.97
	}
	prev := node.Host.Load()
	node.Host.SetLoad(sev)
	af.clear = func() { node.Host.SetLoad(prev) }
	return nil
}

// injectPCIe models #13/#14: the RNIC cannot drain at line rate, sends
// PFC pauses, and the ToR egress port toward it stalls — a PFC storm
// raising RTT to that RNIC (Fig 8 right). Severity is the standing pause
// delay in nanoseconds (default 300 µs).
func (in *Injector) injectPCIe(af *ActiveFault) error {
	r, ok := in.c.Topo.RNICs[af.Dev]
	if !ok {
		return fmt.Errorf("faultgen: PCIe fault needs the victim RNIC in Dev")
	}
	down := in.c.Topo.LinkBetween(r.ToR, af.Dev)
	sev := sim.Time(af.Severity)
	if sev <= 0 {
		sev = 300 * sim.Microsecond
	}
	in.c.Net.SetLinkExtraDelay(down, sev)
	af.clear = func() { in.c.Net.SetLinkExtraDelay(down, 0) }
	return nil
}
