// Package proto defines the data types exchanged between R-Pingmesh's
// three modules (Fig 3): Agent → Controller registration and pinglist
// pulls, Agent → Analyzer probe-result uploads. The same types serve both
// the in-memory wiring used by simulations and the TCP transport in
// internal/wire, mirroring how the production system moves them over the
// management network.
package proto

import (
	"net/netip"

	"rpingmesh/internal/rnic"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

// ProbeKind labels which probing function produced a probe (§3.2).
type ProbeKind int

const (
	// ToRMesh probes stay under one ToR switch and watch RNIC health.
	ToRMesh ProbeKind = iota
	// InterToR probes cover the links between ToR switches.
	InterToR
	// ServiceTracing probes reuse live service 5-tuples.
	ServiceTracing
)

func (k ProbeKind) String() string {
	switch k {
	case ToRMesh:
		return "tor-mesh"
	case InterToR:
		return "inter-tor"
	case ServiceTracing:
		return "service-tracing"
	default:
		return "unknown"
	}
}

// RNICInfo is a Controller registry entry: everything a remote Agent
// needs to address probes at this RNIC. The QPN changes whenever the
// owning Agent restarts, which is why the registry must hold the latest
// value (§4.1).
type RNICInfo struct {
	Dev  topo.DeviceID `json:"dev"`
	Host topo.HostID   `json:"host"`
	ToR  topo.DeviceID `json:"tor"`
	IP   netip.Addr    `json:"ip"`
	GID  string        `json:"gid"`
	QPN  rnic.QPN      `json:"qpn"`
}

// PingTarget is one pinglist entry: a destination plus the source port
// that fixes the probe's ECMP path.
type PingTarget struct {
	Dst     RNICInfo `json:"dst"`
	SrcPort uint16   `json:"src_port"`
}

// Pinglist directs one RNIC's probing for one probe kind.
type Pinglist struct {
	Kind    ProbeKind     `json:"kind"`
	Src     topo.DeviceID `json:"src"`
	Targets []PingTarget  `json:"targets"`
	// Interval is the time between consecutive probes sent from this
	// pinglist (round-robin over Targets).
	Interval sim.Time `json:"interval"`
}

// ProbeResult is one completed or timed-out probe, as uploaded to the
// Analyzer.
type ProbeResult struct {
	Seq  uint64    `json:"seq"`
	Kind ProbeKind `json:"kind"`

	SrcDev  topo.DeviceID `json:"src_dev"`
	SrcHost topo.HostID   `json:"src_host"`
	DstDev  topo.DeviceID `json:"dst_dev"`
	DstHost topo.HostID   `json:"dst_host"`
	SrcIP   netip.Addr    `json:"src_ip"`
	DstIP   netip.Addr    `json:"dst_ip"`
	SrcPort uint16        `json:"src_port"`
	// DstQPN is the QPN the probe addressed; the Analyzer compares it
	// against the Controller's registry to detect QPN-reset noise.
	DstQPN rnic.QPN `json:"dst_qpn"`

	// SentAt is the prober host clock when the probe was posted.
	SentAt sim.Time `json:"sent_at"`

	Timeout bool `json:"timeout"`

	// Latency decomposition (valid when !Timeout), per Fig 4:
	// NetworkRTT = (⑤-②)-(④-③); ResponderDelay = ④-③;
	// ProberDelay = (⑥-①)-(⑤-②).
	NetworkRTT     sim.Time `json:"network_rtt"`
	ProberDelay    sim.Time `json:"prober_delay"`
	ResponderDelay sim.Time `json:"responder_delay"`

	// OneWay marks a §7.4 rail-optimized intra-host probe: no ACKs were
	// exchanged; OneWayDelay is the measured one-way latency and
	// NetworkRTT holds its round-trip equivalent (2×).
	OneWay      bool     `json:"one_way,omitempty"`
	OneWayDelay sim.Time `json:"one_way_delay,omitempty"`

	// Last traced paths for the probe tuple and its ACK tuple (directed
	// link IDs). May be stale or empty if tracing was rate-limited.
	ProbePath []topo.LinkID `json:"probe_path,omitempty"`
	AckPath   []topo.LinkID `json:"ack_path,omitempty"`
}

// UploadBatch is the boxed form of an agent's periodic (5 s) upload, one
// ProbeResult per probe. Agents upload the columnar RecordBatch; the
// boxed form remains only as the UploadSink surface of the pipeline, the
// wire transport and the Analyzer.
type UploadBatch struct {
	Host topo.HostID `json:"host"`
	Sent sim.Time    `json:"sent"`
	// Seq is the per-host upload sequence number, strictly increasing
	// across one Agent incarnation. The ingest tier preserves per-host
	// FIFO order, which downstream consumers (and tests) verify against
	// this field; a coalesced delivery carries the Seq of its newest
	// constituent.
	Seq     uint64        `json:"seq,omitempty"`
	Results []ProbeResult `json:"results"`
}

// Controller is the interface Agents use to talk to the Controller
// (§4.1). Implemented in-memory by internal/controller and over TCP by
// internal/wire. An implementation served by a wire.Server is called
// from every connection's goroutine at once, so it must be safe for
// concurrent use.
type Controller interface {
	// Register reports the latest communication info of all RNICs on a
	// host. Called at Agent start and restart.
	Register(infos []RNICInfo)
	// Pinglists returns the current ToR-mesh and inter-ToR pinglists for
	// every RNIC of the host.
	Pinglists(host topo.HostID) []Pinglist
	// Lookup resolves the latest communication info for the RNIC that
	// owns ip (used by Service Tracing to address probes).
	Lookup(ip netip.Addr) (RNICInfo, bool)
}

// UploadSink receives boxed uploads. Implemented by the Analyzer, the
// ingest pipeline, and the TCP transport. A sink served by a wire.Server
// is called from every connection's goroutine at once, so it must be
// safe for concurrent use; a call may block (backpressure), which holds
// up only the uploading connection.
type UploadSink interface {
	Upload(batch UploadBatch)
}
