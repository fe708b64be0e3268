// Package verbs is the thin verbs-API front-end services use to manage
// RDMA connections, plus the kernel-tracing hook R-Pingmesh's Agent relies
// on for service awareness.
//
// In the paper (§4.2.2), the Agent attaches eBPF kprobes to the kernel
// functions modify_qp and destroy_qp: connection establishment and
// teardown are the only moments the service-flow 5-tuple is visible, and
// hooking them costs nothing on the data path. Here the same information
// flows through the Tracer interface: every ModifyQPToRTS/DestroyQP call
// on a host's Stack notifies the tracers registered on that host. The
// information content is identical to the eBPF hook — 5-tuples exactly at
// establish/close time, no polling.
package verbs

import (
	"fmt"
	"net/netip"

	"rpingmesh/internal/ecmp"
	"rpingmesh/internal/rnic"
	"rpingmesh/internal/topo"
)

// ConnEvent describes an RDMA connection transition observed at the
// kernel boundary.
type ConnEvent struct {
	Host     topo.HostID
	LocalDev topo.DeviceID
	// Tuple is the outer 5-tuple the connection's packets carry; ECMP
	// routes probes with the same tuple onto the service's exact path.
	Tuple ecmp.FiveTuple
	// The internal 4-tuple (GIDs + QPNs) identifying the flow to RDMA.
	LocalGID, RemoteGID string
	LocalQPN, RemoteQPN rnic.QPN
}

// Tracer observes connection lifecycle events on one host — the
// eBPF-equivalent hook.
type Tracer interface {
	QPModified(ev ConnEvent)
	QPDestroyed(ev ConnEvent)
}

// Stack is the per-host verbs entry point.
type Stack struct {
	host    *rnic.Host
	tracers []Tracer
	active  map[qpKey]ConnEvent
}

type qpKey struct {
	dev topo.DeviceID
	qpn rnic.QPN
}

// NewStack wraps a host's devices with a verbs interface.
func NewStack(host *rnic.Host) *Stack {
	return &Stack{host: host, active: make(map[qpKey]ConnEvent)}
}

// Host returns the underlying host.
func (s *Stack) Host() *rnic.Host { return s.host }

// RegisterTracer attaches a lifecycle tracer (the Agent's service-flow
// monitor). Multiple tracers may coexist.
func (s *Stack) RegisterTracer(t Tracer) { s.tracers = append(s.tracers, t) }

// Device finds a local device by ID.
func (s *Stack) Device(id topo.DeviceID) (*rnic.Device, error) {
	for _, d := range s.host.Devices() {
		if d.ID() == id {
			return d, nil
		}
	}
	return nil, fmt.Errorf("verbs: host %s has no device %s", s.host.ID(), id)
}

// CreateQP allocates a queue pair on a local device.
func (s *Stack) CreateQP(dev *rnic.Device, typ rnic.QPType) *rnic.QP {
	return dev.CreateQP(typ)
}

// ModifyQPToRTS connects an RC/UC queue pair to a remote endpoint using
// the given source port (the application-chosen flow label) and fires the
// modify_qp trace event.
func (s *Stack) ModifyQPToRTS(dev *rnic.Device, qp *rnic.QP, srcPort uint16, remoteIP netip.Addr, remoteGID string, remoteQPN rnic.QPN) error {
	if err := qp.Connect(remoteIP, remoteGID, remoteQPN); err != nil {
		return err
	}
	ev := ConnEvent{
		Host:     s.host.ID(),
		LocalDev: dev.ID(),
		Tuple:    ecmp.RoCETuple(dev.IP(), remoteIP, srcPort),
		LocalGID: dev.GID(), RemoteGID: remoteGID,
		LocalQPN: qp.QPN(), RemoteQPN: remoteQPN,
	}
	key := qpKey{dev.ID(), qp.QPN()}
	if old, rehomed := s.active[key]; rehomed && old.Tuple != ev.Tuple {
		// Re-modify with a new source port (the §7.3 load-balancing
		// action): the tracer sees the old flow end and the new one
		// begin, so service-tracing pinglists follow the reroute.
		for _, t := range s.tracers {
			t.QPDestroyed(old)
		}
	}
	s.active[key] = ev
	for _, t := range s.tracers {
		t.QPModified(ev)
	}
	return nil
}

// DestroyQP tears down a queue pair and, if it was a traced connection,
// fires the destroy_qp trace event.
func (s *Stack) DestroyQP(dev *rnic.Device, qp *rnic.QP) {
	key := qpKey{dev.ID(), qp.QPN()}
	ev, traced := s.active[key]
	dev.DestroyQP(qp.QPN())
	if !traced {
		return
	}
	delete(s.active, key)
	for _, t := range s.tracers {
		t.QPDestroyed(ev)
	}
}

// activeConnections returns the current traced connections on this host.
func (s *Stack) activeConnections() []ConnEvent {
	out := make([]ConnEvent, 0, len(s.active))
	for _, ev := range s.active {
		out = append(out, ev)
	}
	return out
}
