// Package rnic implements a software RNIC with the completion-queue
// semantics R-Pingmesh's measurement design depends on (§4.2.1):
//
//   - Commodity RNICs do not timestamp packets on the wire; they only
//     timestamp Completion Queue Events. Every CQE carries the device
//     clock's reading at the instant the CQE is generated.
//   - For UD and UC QPs the send CQE is generated when the message hits
//     the wire, so its timestamp is the true transmit time (②/④ in the
//     paper's Figure 4).
//   - For RC QPs the send CQE is generated only after the transport-level
//     ACK returns, so transmit times are unobservable — this is why the
//     Agent probes with UD.
//   - RC QPs consume QP-context cache; exceeding the cache causes misses
//     that degrade performance, which is the paper's connection-overhead
//     argument for UD (Table 1).
//
// Devices are driven by the discrete-event engine and hand packets to a
// Network implementation (internal/simnet).
//
// A receive CQE's Payload is valid only inside the completion callback,
// like a verbs receive buffer the application reposts: UD and UC packets
// come from a small per-device free list, and the delivering device
// recycles the packet, payload buffer included, as soon as the callback
// returns. A handler that keeps payload bytes must copy them.
package rnic

import (
	"errors"
	"fmt"
	"math/rand"
	"net/netip"

	"rpingmesh/internal/ecmp"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

// QPN is a queue pair number. QPNs are allocated monotonically and never
// reused by a device, so a restarted Agent always gets fresh QPNs — the
// source of the paper's "QPN reset" probe noise (§4.3.1).
type QPN uint32

// QPType is the RDMA transport type of a queue pair.
type QPType int

const (
	// RC is Reliable Connection: connected, reliable, ACK-deferred send
	// CQEs, retransmission with a bounded retry count.
	RC QPType = iota
	// UC is Unreliable Connection: connected, no reliability, immediate
	// send CQEs.
	UC
	// UD is Unreliable Datagram: connectionless, no reliability, immediate
	// send CQEs. One UD QP can reach every peer, so it consumes a single
	// QP context regardless of fan-out.
	UD
)

func (t QPType) String() string {
	switch t {
	case RC:
		return "RC"
	case UC:
		return "UC"
	case UD:
		return "UD"
	default:
		return fmt.Sprintf("QPType(%d)", int(t))
	}
}

// CQEType distinguishes send and receive completions.
type CQEType int

const (
	// CQESend completes a posted send work request.
	CQESend CQEType = iota
	// CQERecv signals an arrived message.
	CQERecv
)

// CQEStatus is the completion status.
type CQEStatus int

const (
	// StatusOK is a successful completion.
	StatusOK CQEStatus = iota
	// StatusRetryExceeded is the RC error after exhausting retransmissions
	// (breaks the connection; the paper's service teams set retry count to
	// the maximum of 7 to survive flapping, §7.1).
	StatusRetryExceeded
)

// CQE is a completion queue event. Timestamp is the DEVICE clock reading
// when the CQE was generated — the only timestamp commodity RNICs expose.
type CQE struct {
	Type      CQEType
	Status    CQEStatus
	QPN       QPN
	WRID      uint64
	Timestamp sim.Time // device clock, NOT true simulation time

	// Receive-side metadata (valid for CQERecv).
	SrcGID string
	SrcQPN QPN
	Tuple  ecmp.FiveTuple
	// Payload aliases the arrived packet's buffer: valid only until the
	// completion callback returns (see the package comment).
	Payload []byte
}

// SendRequest is a work request posted to a QP.
type SendRequest struct {
	WRID    uint64
	Payload []byte

	// SrcPort is the outer UDP source port (the verbs flow label): it
	// selects the ECMP path. Required for all sends.
	SrcPort uint16

	// DSCP is the outer IP codepoint; a QoS-enabled fabric maps it to a
	// traffic class. Zero rides the default class.
	DSCP uint8

	// UD-only addressing; ignored for connected QPs.
	DstIP  netip.Addr
	DstGID string
	DstQPN QPN
}

// Counters aggregates device-level statistics.
type Counters struct {
	Sent           int64 // packets that reached the wire
	Received       int64 // messages delivered to a QP
	TxDropsDown    int64 // sends lost because this device was down/flapped
	TxDropsConfig  int64 // sends lost to misconfiguration (#6/#7)
	RxDropsDown    int64
	RxDropsConfig  int64
	RxDropsCorrupt int64 // receive-side corruption drops (#2)
	StaleQPNDrops  int64 // messages to unknown/destroyed QPNs (QPN reset)
	QPCCacheMisses int64
	RCRetransmits  int64
	RCBroken       int64 // connections torn down by retry exhaustion
}

// Config parameterizes a Device.
type Config struct {
	ID   topo.DeviceID
	IP   netip.Addr
	GID  string
	Host topo.HostID

	Clock    Clock
	LinkGbps float64 // defaults to 400

	// QPCCacheQPs is how many connected QP contexts fit in the on-chip
	// cache before misses begin. Defaults to 256 (order of magnitude of
	// commodity RNICs per the FaSST/eRPC measurements the paper cites).
	QPCCacheQPs int

	// TxOverhead is the fixed doorbell+DMA latency from posting a send to
	// the packet starting serialization. Defaults to 1µs.
	TxOverhead sim.Time

	// RC transport parameters. Defaults: RTO 16ms, 7 retries (the
	// maximum, which the paper's service team configures).
	RCTimeout sim.Time
	RCRetries int
}

// Device is a software RNIC.
type Device struct {
	cfg Config
	eng *sim.Engine
	net Network
	rng *rand.Rand

	qps     map[QPN]*QP
	nextQPN QPN

	up           bool
	misconfig    bool
	rxCorruptPct float64 // probability of dropping an arriving packet

	connectedQPs int
	Counters     Counters

	// free is the device's packet free list (see newPacket), touched
	// only by events on the device's own engine.
	free []*Packet
}

// packetPoolCap bounds each device's packet free list. A packet is taken
// from the sender's list and returned to the receiver's, so under
// asymmetric traffic (a responder that receives more than it sends) an
// uncapped list grows without bound; surplus packets are left to the GC.
// Sixteen covers a device's packets in flight at steady probing rates.
const packetPoolCap = 16

// NewDevice creates a device attached to the given engine and network.
func NewDevice(eng *sim.Engine, net Network, cfg Config) *Device {
	if cfg.LinkGbps <= 0 {
		cfg.LinkGbps = 400
	}
	if cfg.QPCCacheQPs <= 0 {
		cfg.QPCCacheQPs = 256
	}
	if cfg.TxOverhead <= 0 {
		cfg.TxOverhead = 1 * sim.Microsecond
	}
	if cfg.RCTimeout <= 0 {
		cfg.RCTimeout = 16 * sim.Millisecond
	}
	if cfg.RCRetries <= 0 {
		cfg.RCRetries = 7
	}
	return &Device{
		cfg:     cfg,
		eng:     eng,
		net:     net,
		rng:     eng.SubRand("rnic/" + string(cfg.ID)),
		qps:     make(map[QPN]*QP),
		nextQPN: 100, // low QPNs are reserved in real RNICs
		up:      true,
	}
}

// ID returns the device identifier.
func (d *Device) ID() topo.DeviceID { return d.cfg.ID }

// Engine returns the simulation engine the device's events run on — the
// owning pod shard under the sharded engine, or the one global engine in
// serial mode. The data plane uses it to route deliveries to the right
// shard's heap.
func (d *Device) Engine() *sim.Engine { return d.eng }

// IP returns the device address.
func (d *Device) IP() netip.Addr { return d.cfg.IP }

// GID returns the device's RoCE global identifier.
func (d *Device) GID() string { return d.cfg.GID }

// Host returns the server this device is installed in.
func (d *Device) Host() topo.HostID { return d.cfg.Host }

// ReadClock returns the device clock's current reading. This is the value
// stamped into CQEs.
func (d *Device) ReadClock() sim.Time { return d.cfg.Clock.Read(d.eng.Now()) }

// SetClock replaces the device clock mid-run (chaos injection: firmware
// clock resets re-skew CQE timestamps while probes are in flight).
func (d *Device) SetClock(c Clock) { d.cfg.Clock = c }

// Up reports whether the port is administratively and physically up.
func (d *Device) Up() bool { return d.up }

// SetUp raises or lowers the device (fault injection: RNIC down, RNIC
// flapping toggles this rapidly).
func (d *Device) SetUp(up bool) { d.up = up }

// SetMisconfigured marks the device as unable to pass RoCE traffic
// (missing routing config #6 or GID index #7).
func (d *Device) SetMisconfigured(bad bool) { d.misconfig = bad }

// Misconfigured reports the misconfiguration flag.
func (d *Device) Misconfigured() bool { return d.misconfig }

// SetRxCorruption sets the probability that an arriving packet is dropped
// due to corruption (damaged fiber / dusty module, #2).
func (d *Device) SetRxCorruption(p float64) { d.rxCorruptPct = p }

// QPCCacheActive reports how many connected QP contexts are live.
func (d *Device) QPCCacheActive() int { return d.connectedQPs }

// errQPClosed is returned when posting to a destroyed or broken QP.
var errQPClosed = errors.New("rnic: qp closed")

// CreateQP allocates a queue pair of the given type.
func (d *Device) CreateQP(t QPType) *QP {
	qpn := d.nextQPN
	d.nextQPN++
	qp := &QP{dev: d, qpn: qpn, typ: t, pendingRC: make(map[uint64]*rcPending)}
	d.qps[qpn] = qp
	return qp
}

// DestroyQP tears down a queue pair. Packets addressed to its QPN are
// subsequently dropped (and counted as stale-QPN drops).
func (d *Device) DestroyQP(qpn QPN) {
	qp, ok := d.qps[qpn]
	if !ok {
		return
	}
	if qp.connected {
		d.connectedQPs--
	}
	qp.closed = true
	delete(d.qps, qpn)
}

// QP is a queue pair.
type QP struct {
	dev *Device
	qpn QPN
	typ QPType

	// Connected-transport state (RC/UC).
	connected bool
	broken    bool
	closed    bool
	remoteIP  netip.Addr
	remoteGID string
	remoteQPN QPN

	onCQE func(CQE)

	// RC reliability.
	nextSeq   uint64
	pendingRC map[uint64]*rcPending
}

type rcPending struct {
	req     SendRequest
	seq     uint64
	retries int
	timer   sim.Handle
}

// QPN returns the queue pair number.
func (q *QP) QPN() QPN { return q.qpn }

// Type returns the transport type.
func (q *QP) Type() QPType { return q.typ }

// OnCompletion registers the completion handler. CQEs are delivered
// synchronously at the simulation instant they are generated; the caller
// models any host-side polling delay itself.
func (q *QP) OnCompletion(fn func(CQE)) { q.onCQE = fn }

func (q *QP) complete(c CQE) {
	if q.onCQE != nil {
		q.onCQE(c)
	}
}

// Connect transitions a connected QP (RC/UC) to ready-to-send against the
// remote endpoint. It is the device-level effect of the verbs modify_qp
// call the paper traces with eBPF.
func (q *QP) Connect(remoteIP netip.Addr, remoteGID string, remoteQPN QPN) error {
	if q.typ == UD {
		return errors.New("rnic: UD QPs are connectionless")
	}
	if q.closed {
		return errQPClosed
	}
	if !q.connected {
		q.dev.connectedQPs++
	}
	q.connected = true
	q.remoteIP = remoteIP
	q.remoteGID = remoteGID
	q.remoteQPN = remoteQPN
	return nil
}

// PostSend posts a send work request. The send CQE is generated according
// to the transport's semantics (immediately at wire time for UD/UC,
// at ACK time for RC).
func (q *QP) PostSend(req SendRequest) error {
	if q.closed {
		return errQPClosed
	}
	if q.broken {
		return errors.New("rnic: rc connection broken")
	}
	d := q.dev
	var dstIP netip.Addr
	var dstGID string
	var dstQPN QPN
	switch q.typ {
	case UD:
		if !req.DstIP.IsValid() {
			return errors.New("rnic: UD send without destination")
		}
		dstIP, dstGID, dstQPN = req.DstIP, req.DstGID, req.DstQPN
	default:
		if !q.connected {
			return errors.New("rnic: send on unconnected " + q.typ.String() + " QP")
		}
		dstIP, dstGID, dstQPN = q.remoteIP, q.remoteGID, q.remoteQPN
	}

	// QPC cache pressure: connected contexts beyond the cache miss with
	// probability proportional to the overflow, costing extra latency.
	extra := sim.Time(0)
	if q.typ != UD && d.connectedQPs > d.cfg.QPCCacheQPs {
		overflow := float64(d.connectedQPs-d.cfg.QPCCacheQPs) / float64(d.connectedQPs)
		if d.rng.Float64() < overflow {
			d.Counters.QPCCacheMisses++
			extra = 2 * sim.Microsecond
		}
	}

	var pkt *Packet
	if q.typ == RC {
		pkt = &Packet{}
	} else {
		pkt = d.newPacket()
		pkt.qp = q
	}
	pkt.Tuple = ecmp.RoCETuple(d.cfg.IP, dstIP, req.SrcPort)
	pkt.SrcDev = d.cfg.ID
	pkt.SrcGID = d.cfg.GID
	pkt.SrcQPN = q.qpn
	pkt.DstGID = dstGID
	pkt.DstQPN = dstQPN
	pkt.QPType = q.typ
	pkt.Kind = KindMessage
	pkt.WRID = req.WRID
	pkt.DSCP = req.DSCP
	pkt.Payload = append(pkt.inline[:0], req.Payload...)
	pkt.WireSize = roceHeaderBytes + len(req.Payload)

	wireDelay := d.cfg.TxOverhead + extra + d.serialization(pkt.WireSize)
	if q.typ != RC {
		d.eng.After(wireDelay, pkt.onWire)
		return nil
	}
	seq := q.nextSeq
	q.nextSeq++
	pkt.Seq = seq
	p := &rcPending{req: req, seq: seq}
	q.pendingRC[seq] = p
	d.eng.After(wireDelay, func() {
		d.transmit(pkt)
		q.armRetry(p, pkt)
	})
	return nil
}

// newPacket takes a UD/UC packet from the device's free list, or
// allocates one and binds its callbacks.
func (d *Device) newPacket() *Packet {
	if n := len(d.free); n > 0 {
		p := d.free[n-1]
		d.free[n-1] = nil
		d.free = d.free[:n-1]
		p.free = false
		return p
	}
	p := &Packet{}
	p.onWire = p.sendOnWire
	p.deliver = p.deliverNow
	return p
}

// recycle returns a pooled packet to this device's free list, unless the
// list is full. RC packets (no bound callbacks) are left to the GC.
func (d *Device) recycle(p *Packet) {
	if p.onWire == nil {
		return
	}
	if p.free {
		panic("rnic: packet recycled twice")
	}
	p.free = true
	if len(d.free) >= packetPoolCap {
		return
	}
	*p = Packet{onWire: p.onWire, deliver: p.deliver, free: true}
	d.free = append(d.free, p)
}

// sendOnWire is a UD/UC packet's wire-time event: transmit, then the
// send CQE stamped with the device clock, as soon as the message is on
// the wire — this is what makes ② and ④ observable. A packet the device
// itself drops comes straight back to its free list.
func (p *Packet) sendOnWire() {
	q := p.qp
	d := q.dev
	wrid := p.WRID
	sent := d.transmit(p)
	q.complete(CQE{Type: CQESend, Status: StatusOK, QPN: q.qpn, WRID: wrid, Timestamp: d.ReadClock()})
	if !sent {
		d.recycle(p)
	}
}

func (p *Packet) deliverNow() { p.dst.Deliver(p) }

func (q *QP) armRetry(p *rcPending, pkt *Packet) {
	d := q.dev
	p.timer = d.eng.After(d.cfg.RCTimeout, func() {
		if _, live := q.pendingRC[p.seq]; !live || q.closed || q.broken {
			return
		}
		if p.retries >= d.cfg.RCRetries {
			delete(q.pendingRC, p.seq)
			q.broken = true
			d.Counters.RCBroken++
			q.complete(CQE{Type: CQESend, Status: StatusRetryExceeded, QPN: q.qpn, WRID: p.req.WRID, Timestamp: d.ReadClock()})
			return
		}
		p.retries++
		d.Counters.RCRetransmits++
		retx := *pkt
		d.transmit(&retx)
		q.armRetry(p, pkt)
	})
}

// serialization returns time on the wire for a packet of the given size.
func (d *Device) serialization(bytes int) sim.Time {
	ns := float64(bytes*8) / d.cfg.LinkGbps // Gbps -> bits/ns
	return sim.Time(ns)
}

// transmit pushes a packet to the wire, applying egress fault states. It
// reports whether the network took the packet.
func (d *Device) transmit(p *Packet) bool {
	if d.misconfig {
		d.Counters.TxDropsConfig++
		return false
	}
	if !d.up {
		d.Counters.TxDropsDown++
		return false
	}
	p.SentAt = d.eng.Now()
	d.Counters.Sent++
	d.net.SendPacket(p)
	return true
}

// Deliver is called by the Network when a packet arrives at this device.
// A pooled packet returns to this device's free list once the receive
// CQE's callback has returned (or the packet is dropped here).
func (d *Device) Deliver(p *Packet) {
	d.receive(p)
	d.recycle(p)
}

func (d *Device) receive(p *Packet) {
	if d.misconfig {
		d.Counters.RxDropsConfig++
		return
	}
	if !d.up {
		d.Counters.RxDropsDown++
		return
	}
	if d.rxCorruptPct > 0 && d.rng.Float64() < d.rxCorruptPct {
		d.Counters.RxDropsCorrupt++
		return
	}

	if p.Kind == KindTransportAck {
		d.deliverAck(p)
		return
	}

	qp, ok := d.qps[p.DstQPN]
	if !ok || qp.typ != p.QPType {
		// Unknown or stale QPN: the RNIC silently drops the packet. This
		// is exactly the paper's QPN-reset noise.
		d.Counters.StaleQPNDrops++
		return
	}
	d.Counters.Received++

	if qp.typ == RC {
		// Hardware acknowledges immediately, mirroring the message's
		// source port (as the paper notes real RNICs do).
		ack := &Packet{
			Tuple:    ecmp.RoCETuple(d.cfg.IP, p.Tuple.SrcIP, p.Tuple.SrcPort),
			SrcDev:   d.cfg.ID,
			SrcGID:   d.cfg.GID,
			SrcQPN:   qp.qpn,
			DstGID:   p.SrcGID,
			DstQPN:   p.SrcQPN,
			QPType:   RC,
			Kind:     KindTransportAck,
			Seq:      p.Seq,
			DSCP:     p.DSCP,
			WireSize: roceHeaderBytes,
		}
		d.eng.After(500*sim.Nanosecond, func() { d.transmit(ack) })
	}

	qp.complete(CQE{
		Type:      CQERecv,
		Status:    StatusOK,
		QPN:       qp.qpn,
		WRID:      p.WRID,
		Timestamp: d.ReadClock(),
		SrcGID:    p.SrcGID,
		SrcQPN:    p.SrcQPN,
		Tuple:     p.Tuple,
		Payload:   p.Payload,
	})
}

func (d *Device) deliverAck(p *Packet) {
	qp, ok := d.qps[p.DstQPN]
	if !ok || qp.typ != RC {
		d.Counters.StaleQPNDrops++
		return
	}
	pending, ok := qp.pendingRC[p.Seq]
	if !ok {
		return // duplicate ACK after retransmit already completed
	}
	pending.timer.Cancel()
	delete(qp.pendingRC, p.Seq)
	// RC send CQE only now — after the ACK — which is why RC cannot
	// observe transmit timestamps (Table 1).
	qp.complete(CQE{Type: CQESend, Status: StatusOK, QPN: qp.qpn, WRID: pending.req.WRID, Timestamp: d.ReadClock()})
}
