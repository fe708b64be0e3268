package verbs

import (
	"net/netip"
	"testing"

	"rpingmesh/internal/rnic"
	"rpingmesh/internal/sim"
)

type recordingTracer struct {
	modified  []ConnEvent
	destroyed []ConnEvent
}

func (r *recordingTracer) QPModified(ev ConnEvent)  { r.modified = append(r.modified, ev) }
func (r *recordingTracer) QPDestroyed(ev ConnEvent) { r.destroyed = append(r.destroyed, ev) }

func testStack(t *testing.T) (*Stack, *rnic.Device, *rnic.Device) {
	t.Helper()
	eng := sim.New(1)
	net := &rnic.DropNetwork{}
	h := rnic.NewHost(eng, "host-a", rnic.Clock{})
	local := rnic.NewDevice(eng, net, rnic.Config{ID: "rnic-l", IP: ip(1), GID: "gid-l", Host: "host-a"})
	h.Attach(local)
	remote := rnic.NewDevice(eng, net, rnic.Config{ID: "rnic-r", IP: ip(2), GID: "gid-r", Host: "host-b"})
	return NewStack(h), local, remote
}

func ip(last byte) netip.Addr { return netip.AddrFrom4([4]byte{10, 0, 0, last}) }

func TestModifyAndDestroyFireTracer(t *testing.T) {
	s, local, remote := testStack(t)
	var tr recordingTracer
	s.RegisterTracer(&tr)

	rqp := remote.CreateQP(rnic.RC)
	qp := s.CreateQP(local, rnic.RC)
	if err := s.ModifyQPToRTS(local, qp, 7777, remote.IP(), remote.GID(), rqp.QPN()); err != nil {
		t.Fatalf("ModifyQPToRTS: %v", err)
	}
	if len(tr.modified) != 1 {
		t.Fatalf("modified events = %d", len(tr.modified))
	}
	ev := tr.modified[0]
	if ev.Host != "host-a" || ev.LocalDev != "rnic-l" {
		t.Fatalf("event identity: %+v", ev)
	}
	if ev.Tuple.SrcPort != 7777 || ev.Tuple.DstPort != 4791 {
		t.Fatalf("event tuple: %v", ev.Tuple)
	}
	if ev.LocalQPN != qp.QPN() || ev.RemoteQPN != rqp.QPN() {
		t.Fatalf("event QPNs: %+v", ev)
	}
	if ev.RemoteGID != "gid-r" {
		t.Fatalf("event remote GID: %+v", ev)
	}
	if got := len(s.activeConnections()); got != 1 {
		t.Fatalf("active = %d", got)
	}

	s.DestroyQP(local, qp)
	if len(tr.destroyed) != 1 {
		t.Fatalf("destroyed events = %d", len(tr.destroyed))
	}
	if tr.destroyed[0].Tuple != ev.Tuple {
		t.Fatal("destroy event tuple mismatch")
	}
	if len(s.activeConnections()) != 0 {
		t.Fatal("connection still active after destroy")
	}
}

func TestDestroyUntracedQPIsSilent(t *testing.T) {
	s, local, _ := testStack(t)
	var tr recordingTracer
	s.RegisterTracer(&tr)
	// A UD QP never goes through modify_qp-to-RTS, so destroying it must
	// not produce a destroy event (the Agent's own probing QPs are
	// invisible to service tracing).
	qp := s.CreateQP(local, rnic.UD)
	s.DestroyQP(local, qp)
	if len(tr.destroyed) != 0 {
		t.Fatal("untraced QP destroy fired a trace event")
	}
}

func TestModifyFailurePropagates(t *testing.T) {
	s, local, remote := testStack(t)
	var tr recordingTracer
	s.RegisterTracer(&tr)
	qp := s.CreateQP(local, rnic.UD) // UD cannot be connected
	if err := s.ModifyQPToRTS(local, qp, 1, remote.IP(), remote.GID(), 5); err == nil {
		t.Fatal("ModifyQPToRTS on UD QP succeeded")
	}
	if len(tr.modified) != 0 {
		t.Fatal("failed modify fired a trace event")
	}
}

func TestMultipleTracers(t *testing.T) {
	s, local, remote := testStack(t)
	var t1, t2 recordingTracer
	s.RegisterTracer(&t1)
	s.RegisterTracer(&t2)
	rqp := remote.CreateQP(rnic.RC)
	qp := s.CreateQP(local, rnic.RC)
	if err := s.ModifyQPToRTS(local, qp, 1, remote.IP(), remote.GID(), rqp.QPN()); err != nil {
		t.Fatal(err)
	}
	if len(t1.modified) != 1 || len(t2.modified) != 1 {
		t.Fatal("not all tracers notified")
	}
}

func TestDeviceLookup(t *testing.T) {
	s, local, _ := testStack(t)
	d, err := s.Device(local.ID())
	if err != nil || d != local {
		t.Fatalf("Device lookup: %v %v", d, err)
	}
	if _, err := s.Device("nope"); err == nil {
		t.Fatal("unknown device lookup succeeded")
	}
	if s.Host().ID() != "host-a" {
		t.Fatal("Host accessor")
	}
}

// Re-modifying a live connection with a new source port (the §7.3
// load-balancing action) fires destroy(old tuple) then modify(new tuple),
// so tuple-keyed service pinglists stay consistent.
func TestRemodifyFiresDestroyThenModify(t *testing.T) {
	s, local, remote := testStack(t)
	var tr recordingTracer
	s.RegisterTracer(&tr)
	rqp := remote.CreateQP(rnic.RC)
	qp := s.CreateQP(local, rnic.RC)
	if err := s.ModifyQPToRTS(local, qp, 1000, remote.IP(), remote.GID(), rqp.QPN()); err != nil {
		t.Fatal(err)
	}
	if err := s.ModifyQPToRTS(local, qp, 2000, remote.IP(), remote.GID(), rqp.QPN()); err != nil {
		t.Fatal(err)
	}
	if len(tr.modified) != 2 {
		t.Fatalf("modified events = %d, want 2", len(tr.modified))
	}
	if len(tr.destroyed) != 1 || tr.destroyed[0].Tuple.SrcPort != 1000 {
		t.Fatalf("destroyed events = %+v, want the old tuple", tr.destroyed)
	}
	if tr.modified[1].Tuple.SrcPort != 2000 {
		t.Fatalf("second modify tuple = %v", tr.modified[1].Tuple)
	}
	if got := len(s.activeConnections()); got != 1 {
		t.Fatalf("active = %d after remodify", got)
	}
	// Re-modifying with the SAME tuple must not fire a destroy.
	if err := s.ModifyQPToRTS(local, qp, 2000, remote.IP(), remote.GID(), rqp.QPN()); err != nil {
		t.Fatal(err)
	}
	if len(tr.destroyed) != 1 {
		t.Fatal("same-tuple remodify fired a destroy")
	}
}
