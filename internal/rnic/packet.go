package rnic

import (
	"rpingmesh/internal/ecmp"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

// Packet is one RoCE datagram on the wire: an RDMA message encapsulated
// over UDP. The outer Tuple steers ECMP; the inner GID/QPN addressing
// identifies the RDMA endpoints (the paper's "internal 4-tuple").
type Packet struct {
	Tuple ecmp.FiveTuple

	SrcDev, DstDev topo.DeviceID
	SrcGID, DstGID string
	SrcQPN, DstQPN QPN
	QPType         QPType

	// Kind distinguishes RDMA messages from transport-level RC ACKs
	// (which are invisible to the application).
	Kind PacketKind

	// Seq is the RC transport sequence number (retransmissions reuse it).
	Seq uint64

	// WRID echoes the work request that produced the packet.
	WRID uint64

	// DSCP is the IP differentiated-services codepoint (6 bits). On a
	// QoS-enabled fabric it selects the per-priority traffic class; the
	// zero value rides the default class.
	DSCP uint8

	Payload []byte
	// WireSize is the total on-wire size in bytes (headers + payload).
	WireSize int

	// SentAt is the true simulation time the packet left the source RNIC
	// (set by the device, read by the network for diagnostics).
	SentAt sim.Time

	// Pool state of UD/UC packets (Device.newPacket). inline backs
	// Payload when it fits; onWire and deliver are bound once when the
	// packet is allocated, so a recycled packet is scheduled without
	// building a closure. RC packets leave them nil: armRetry copies its
	// packet, and a copy must not carry callbacks bound to the original.
	inline  [inlinePayload]byte
	qp      *QP     // the posting QP, read by onWire
	dst     *Device // the receiver, set by DeliverTo
	onWire  func()
	deliver func()
	free    bool // on a device's free list
}

// inlinePayload is the payload size a pooled packet carries without a
// separate allocation: the Agent's 50-byte probe and ACK payloads fit.
const inlinePayload = 64

// DeliverTo returns the callback that hands p to dst, for a Network to
// schedule at the packet's arrival instant. Pooled packets return their
// pre-bound callback; others get a fresh closure.
func (p *Packet) DeliverTo(dst *Device) func() {
	if p.deliver == nil {
		return func() { dst.Deliver(p) }
	}
	p.dst = dst
	return p.deliver
}

// PacketKind labels the transport role of a packet.
type PacketKind int

const (
	// KindMessage is an application RDMA message (probe, ACK payload...).
	KindMessage PacketKind = iota
	// KindTransportAck is the RC hardware acknowledgement. It never
	// surfaces as a CQE on the receiver; its arrival completes the
	// sender's work request.
	KindTransportAck
)

func (k PacketKind) String() string {
	switch k {
	case KindMessage:
		return "msg"
	case KindTransportAck:
		return "rc-ack"
	default:
		return "unknown"
	}
}

// roceHeaderBytes approximates Ethernet+IP+UDP+BTH(+DETH) framing overhead
// of a RoCE v2 datagram.
const roceHeaderBytes = 66

// Network is the data plane the RNIC hands packets to. internal/simnet
// implements it: it resolves the destination by IP, walks the ECMP path,
// applies queuing delay / drops / PFC, and eventually calls Deliver on the
// destination device.
type Network interface {
	// SendPacket takes ownership of p at the moment the packet hits the
	// wire. A packet the network drops is simply forgotten; one it
	// delivers must reach Device.Deliver exactly once, on the engine of
	// the receiving device, which may recycle it right after.
	SendPacket(p *Packet)
}

// DropNetwork is a Network that silently discards everything; useful as a
// default and in unit tests.
type DropNetwork struct{ Dropped int }

// SendPacket implements Network.
func (d *DropNetwork) SendPacket(*Packet) { d.Dropped++ }
